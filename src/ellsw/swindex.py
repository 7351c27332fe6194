"""Dimension of the Seiberg-Witten moduli space for the bundle character.

The dimension is c1(E)^2 - K.c1(E) plus a cone-point contribution
(1/|G|) sum over g != 1 of

    chi(g) = 2 (rho(g) - 1) / ((1 - conj l1)(1 - conj l2)),

with l1, l2 the eigenvalues of g.  `chi` evaluates single elements
exactly.  Two independent routes sum it by label: the sweep engine takes
the first label in closed form and sums every other over the model's coset
descriptors, each `count` scalar-subgroup cosets in closed form, and
certifies each labelled subtotal rational by Galois stability; the
per-element route walks the matrix group one cyclic subgroup at a time,
calls `chi` on one generator and adds its trace, the sum over all its
generators.  The closed forms are derived next to their formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _model
from .bundle import rho
from .cyclo import CyclotomicNumber, euler_phi, frac_str
from .errors import ConstraintError, DomainError, InternalInvariantError
from .groups import BINARY, BINARY_KIND, GroupSpec, UnitaryElement, build_group
from .rootsum import RootSum

_ZERO = Fraction(0)


def chi(
    g: UnitaryElement, rho_value: CyclotomicNumber, inverses: dict | None = None
) -> CyclotomicNumber:
    """Isolated cone-point contribution of a single group element,
    2 (rho(g) - 1) / ((1 - conj l1)(1 - conj l2)); the free action makes
    the fixed point's isotropy trivial, and no other sector term arises.
    The denominator is conj det(g - 1), read off the entries with no
    eigenvalue search, and inverted at its conductor, which can be far
    below the order of the entries.

    Where rho(g) = 1 the value is 0 and only freeness is checked, with no
    product on a diagonal g, whose det(g - 1) = (a - 1)(d - 1).

    `inverses`, when given, is a mapping the caller owns from the exact
    (order, num, den) of det(g - 1) to 1/conj det(g - 1): conjugate
    elements share their eigenvalues, so a caller summing over a group
    reduces, conjugates and inverts each distinct denominator once.  Only
    the invertible denominators of rho(g) != 1 are stored, so both
    DomainErrors are raised on every call that meets them."""
    if g.is_identity():
        raise DomainError("chi is undefined at the identity")
    (a, b), (c, d) = g.entries
    if rho_value.is_one():
        if b.is_zero() and c.is_zero():
            fixed = a.is_one() or d.is_one()
        else:
            fixed = ((a - 1) * (d - 1) - b * c).is_zero()
        if fixed:
            raise DomainError("element has eigenvalue 1; the action is not free")
        return CyclotomicNumber.zero()
    if inverses is None:
        inverses = {}
    det = (a - 1) * (d - 1) - b * c
    key = (det.order, det.num, det.den)
    inv = inverses.get(key)
    if inv is None:
        den = det.reduced().conjugate()
        if den.is_zero():
            raise DomainError("element has eigenvalue 1; the action is not free")
        inv = inverses[key] = den.inverse()
    return (rho_value - 1) * 2 * inv


# ---------------------------------------------------------------------------
# coset-level closed forms
#
# For a coset {mu^k g0 : k < K} of the scalar subgroup (mu = zeta_K), with
# w = rho(g0), r = rho(mu I) = mu^c, and g0 eigenvalues alpha, beta:
#
#   sum_k 2 (w r^k - 1) W_k,  W_k = 1/((1 - mu^-k conj a)(1 - mu^-k conj b))
#
# Expanding W_k as a double geometric series in an auxiliary variable t and
# using sum_k mu^(k(c - j1 - j2)) = K [j1 + j2 = c mod K] collapses the sum
# to 2K (w P(c) - P(0)) with, for u = conj alpha, v = conj beta (u != v),
#
#   P(s) = [u^(s+1)/(1 - u^K) - v^(s+1)/(1 - v^K)] / (u - v),
#
# valid because freeness forces u^K != 1 != v^K; `count` cosets that share
# w, alpha and beta sum to count times that.  The scalar coset itself
# telescopes to the integer c (K - c - 2).


def _scalar_sum(K: int, c: int) -> int:
    c %= K
    return c * (K - c - 2)


def _coset_sum(N, K, c, w2m, a_exp, b_exp, count) -> RootSum:
    # Freeness, u^K != 1 != v^K, is checked with a witness by validate_free_action.
    if (a_exp - b_exp) % N == 0:
        raise InternalInvariantError(
            "scalar coset fed to the non-scalar formula",
            witness={"N": N, "K": K, "a_exp": a_exp, "b_exp": b_exp},
        )
    w_exp = (w2m * (N // K)) % N
    inv_a = RootSum.inv_one_minus(N, (-a_exp * K) % N)
    inv_b = RootSum.inv_one_minus(N, (-b_exp * K) % N)
    # 2K count (w P(c) - P(0)), with the factor zeta^a of 1/(u - v) =
    # zeta^a / (1 - zeta^(a-b)) shifted into each term
    scale = 2 * K * count
    t = RootSum(N)
    t.add_scaled(inv_a, (w_exp - a_exp * c) % N, scale)
    t.add_scaled(inv_a, 0, -scale)
    t.add_scaled(inv_b, (w_exp - b_exp * (c + 1) + a_exp) % N, -scale)
    t.add_scaled(inv_b, (a_exp - b_exp) % N, scale)
    return t.mul(RootSum.inv_one_minus(N, (a_exp - b_exp) % N))


def _dihedral_rotation_sum(m: int, n: int):
    """The full rotation-label sum (Lambda1) for the dihedral families.

    Summing the coset formula over all rotation cosets reduces, after
    pairing u with 1/u and substituting xi = u^2, to the classical sums
    sum_{xi^n = 1, xi != 1} xi^b / (1 - xi), giving an O(m + n) formula.
    """
    K = 2 * m
    c = (2 * n) % K
    minv = pow(m % n, -1, n)
    # v2 is twice the sum: each i takes off (n - 1) / 2 when b = 0, else
    # (b - 1) - (n - 1) / 2.
    v2 = 0
    for i in range(1, c // 2 + 1):
        b = (i * minv) % n
        v2 -= n - 1 if b == 0 else 2 * b - 1 - n
    return _scalar_sum(K, c) - 4 * m * v2


# Small: no CLI call looks a spec up twice and a sweep visits each spec
# once, so a larger cache only holds label dicts that are never read again.
@lru_cache(maxsize=64)
def _singular_sums(spec: GroupSpec):
    """Ordered label -> exact rational chi-subtotal over G minus identity: the
    first label in closed form, every other from the model's coset descriptors."""
    model = _model.family_model(spec)
    cosets = model.validate_free_action()
    N, K = model.N, model.K
    c = model.c0 % K
    first = _dihedral_rotation_sum(spec.m, spec.n) if model.is_dihedral else _scalar_sum(K, c)
    labels = dict.fromkeys(model.labels, 0)
    labels[model.labels[0]] = first
    for data in cosets:
        rs = _coset_sum(N, K, c, data.w2m, data.a_exp, data.b_exp, data.count)
        total = labels[data.label]
        labels[data.label] = total.add_scaled(rs) if total else rs
    return {label: Fraction(v) if type(v) is int else v.rational_value()
            for label, v in labels.items()}


def s_breakdown(spec: GroupSpec) -> dict:
    """Labelled partial chi-sums: Lambda1..Lambda3 (dihedral) or S0..S3."""
    return dict(_singular_sums(spec))


def singular_point_contribution(spec: GroupSpec) -> Fraction:
    """(1/|G|) of the total chi-sum over non-identity elements."""
    return sum(_singular_sums(spec).values(), _ZERO) / spec.order


def c1E_squared(spec: GroupSpec) -> Fraction:
    return Fraction(spec.order, 4 * spec.m * spec.m)


def minus_K_dot_c1E(spec: GroupSpec) -> Fraction:
    return Fraction(spec.m + 1, spec.m)


def d_E(spec: GroupSpec) -> int:
    """Moduli-space dimension from the group data; even integer >= 2."""
    return sw_dimension_report(spec).d_E


def _dimension(spec: GroupSpec, c1E_sq: Fraction, minus_K_c1E: Fraction, chi_total: Fraction) -> int:
    """c1(E)^2 - K.c1(E) + chi_total/|G|, checked to be an even integer >= 2.

    The three terms are summed over the product of their denominators."""
    b, k = c1E_sq.denominator, minus_K_c1E.denominator
    q = chi_total.denominator * spec.order
    den = b * k * q
    num = (c1E_sq.numerator * k + minus_K_c1E.numerator * b) * q + chi_total.numerator * b * k
    d, rem = divmod(num, den)
    if rem:
        value = Fraction(num, den)
        raise InternalInvariantError(
            f"dimension for {spec} is not an integer: {value}",
            witness={"spec": spec, "value": value},
        )
    if d % 2 or d < 2:
        raise InternalInvariantError(
            f"dimension for {spec} is not an even integer >= 2: {d}",
            witness={"spec": spec, "value": d},
        )
    return d


def closed_form_d_E(spec: GroupSpec) -> int:
    """The per-family case formula, independent of any group enumeration."""
    f, m = spec.family, spec.m
    if f in ("DD", "DC"):
        n = spec.n
        if m > n:
            return 2
        delta = n // m
        return delta + 2 + ((-1) ** delta - 1) // 2
    if f in ("TT", "TD"):
        return 8 if m == 1 else 2
    if f == "OO":
        return 14 if m == 1 else 2
    return 32 if m == 1 else (4 if m == 7 else 2)


# ---------------------------------------------------------------------------
# per-element reference path (independent of the coset engine)


def sum_chi_by_elements(spec: GroupSpec) -> Fraction:
    """The sum of chi over all non-identity elements: the sum of the labelled
    subtotals of `s_breakdown_by_elements`."""
    return sum(s_breakdown_by_elements(spec).values(), Fraction(0))


def s_breakdown_by_elements(spec: GroupSpec) -> dict:
    """Label -> chi subtotal, from the matrix group one cyclic subgroup at a
    time (small groups only); far slower than the engine but independent of it.

    For t coprime to d = ord(g), the eigenvalues of g^t and rho(g^t) are
    those of g to the t, so chi(g^t) = sigma_t(chi(g)), with sigma_t the
    automorphism zeta_d -> zeta_d^t of Q(zeta_d), which holds chi(g).  The
    walk marks the generators g^t of each unvisited <g> and calls `chi` on g
    alone.  Their sum, the trace from Q(zeta_d) to Q, is phi(d)/phi(N) times
    the trace from Q(zeta_N), N | d the lcm of the conductors `chi` stores
    at; it goes to the label of g.  The family labels split <g> only as
    Lambda1 with Lambda3 in DD and DC, where a pure y^l has rho = 1 and so
    chi is 0 on all of <g>; a generator of another label where chi(g) != 0
    raises InternalInvariantError.  g^t has an eigenvalue 1 iff g has one,
    so `chi` raises DomainError for every non-free cyclic subgroup, rho = 1
    or not; only where rho(g) != 1 does it form a denominator, and each
    distinct one is inverted once per call, and not kept.
    """
    model = _model.family_model(spec)
    group = build_group(spec)
    character = rho(spec, group)
    traces = dict.fromkeys(model.labels, _ZERO)
    inverses = {}
    seen = bytearray(group.order)
    for k in group.keys[1:]:  # every key but the identity 0
        if seen[k]:
            continue
        powers = list(group.powers(k))  # k, k^2, ..., k^d = identity
        d = len(powers)
        gens = [powers[t - 1] for t in range(2, d) if math.gcd(t, d) == 1]
        for g in gens:
            seen[g] = 1
        value = chi(group.to_matrix(k), character.value(k), inverses)
        if value.is_zero():
            continue
        label = model.label(k)
        if any(model.label(g) != label for g in gens):
            raise InternalInvariantError(
                f"cyclic subgroup of key {k} in {spec} spans two labels where chi is not 0",
                witness={"spec": spec, "key": k, "order": d},
            )
        traces[label] += Fraction(euler_phi(d), euler_phi(value.order)) * value.trace()
    return traces


# ---------------------------------------------------------------------------
# reports and sweeps


@dataclass
class SWDimensionReport:
    spec: GroupSpec
    c1E_squared: Fraction
    minus_K_dot_c1E: Fraction
    s_breakdown: dict
    sum_chi: Fraction
    d_E: int

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "c1E_sq": frac_str(self.c1E_squared),
            "minus_K_c1E": frac_str(self.minus_K_dot_c1E),
            "S": {k: frac_str(v) for k, v in self.s_breakdown.items()},
            "sum_chi": frac_str(self.sum_chi),
            "dE": self.d_E,
        }


def sw_dimension_report(spec: GroupSpec) -> SWDimensionReport:
    labels = s_breakdown(spec)
    total = sum(labels.values(), _ZERO)
    c1E_sq = c1E_squared(spec)
    minus_K_c1E = minus_K_dot_c1E(spec)
    return SWDimensionReport(
        spec=spec,
        c1E_squared=c1E_sq,
        minus_K_dot_c1E=minus_K_c1E,
        s_breakdown=labels,
        sum_chi=total,
        d_E=_dimension(spec, c1E_sq, minus_K_c1E, total),
    )


def sweep_specs(max_order: int):
    """Every valid spec with |G| <= max_order, in a fixed deterministic order."""
    specs = []
    for family in ("DD", "DC"):
        m = 1 if family == "DD" else 2
        while 8 * m <= max_order:
            for n in range(2, max_order // (4 * m) + 1):
                if math.gcd(m, n) == 1:
                    specs.append(GroupSpec(family, m, n))
            m += 2
    for family, kind in BINARY_KIND.items():
        for m in range(1, max_order // BINARY[kind][0] + 1):
            try:
                specs.append(GroupSpec(family, m))
            except ConstraintError:
                continue
    return specs
