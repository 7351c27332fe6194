"""Dimension of the Seiberg-Witten moduli space for the bundle character.

The dimension is c1(E)^2 - K.c1(E) plus a cone-point contribution
(1/|G|) sum over g != 1 of

    chi(g) = 2 (rho(g) - 1) / ((1 - conj l1)(1 - conj l2)),

with l1, l2 the eigenvalues of g.  `chi` evaluates single elements
exactly; the sweep engine sums whole scalar-subgroup cosets in closed
form and certifies each labelled subtotal rational by Galois stability.
A derivation sketch for the closed forms lives next to the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _model
from .cyclo import CyclotomicNumber
from .errors import ConstraintError, DomainError, InternalInvariantError
from .groups import GroupSpec, UnitaryElement, eigen_angles
from .rootsum import RootSum


def chi(g: UnitaryElement, rho_value: CyclotomicNumber) -> CyclotomicNumber:
    """Isolated-point index contribution of a single group element."""
    if g.is_identity():
        raise DomainError("chi is undefined at the identity")
    lam1, lam2 = eigen_angles(g)
    if lam1.is_one() or lam2.is_one():
        raise DomainError("element has eigenvalue 1; the action is not free")
    one = CyclotomicNumber.one()
    den = (one - lam1.conjugate()) * (one - lam2.conjugate())
    return (rho_value - one) * 2 * den.inverse()


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
# valid because freeness forces u^K != 1 != v^K.  The scalar coset itself
# telescopes to the integer c (K - c - 2).


def _scalar_sum(K: int, c: int) -> int:
    c %= K
    return c * (K - c - 2)


def _coset_sum(N, K, c, w2m, a_exp, b_exp) -> RootSum:
    if (a_exp * K) % N == 0 or (b_exp * K) % N == 0:
        raise InternalInvariantError("coset has a K-th-power eigenvalue of 1")
    if (a_exp - b_exp) % N == 0:
        raise InternalInvariantError("scalar coset fed to the non-scalar formula")
    w_exp = (w2m * (N // K)) % N
    inv_a = RootSum.inv_one_minus(N, (-a_exp * K) % N)
    inv_b = RootSum.inv_one_minus(N, (-b_exp * K) % N)
    t = RootSum(N)
    t.add_scaled(inv_a, (w_exp - a_exp * (c + 1)) % N, 1)
    t.add_scaled(inv_a, (-a_exp) % N, -1)
    t.add_scaled(inv_b, (w_exp - b_exp * (c + 1)) % N, -1)
    t.add_scaled(inv_b, (-b_exp) % N, 1)
    # 1/(u - v) = zeta^a / (1 - zeta^(a-b))
    out = t.mul(RootSum.inv_one_minus(N, (a_exp - b_exp) % N))
    final = RootSum(N)
    final.add_scaled(out, a_exp % N, 2 * K)
    return final


def _dihedral_rotation_sums(m: int, n: int):
    """(scalar part, full rotation-label sum) for the dihedral families.

    Summing the coset formula over all rotation cosets reduces, after
    pairing u with 1/u and substituting xi = u^2, to the classical sums
    sum_{xi^n = 1, xi != 1} xi^b / (1 - xi), giving an O(m + n) formula.
    """
    K = 2 * m
    c = (2 * n) % K
    s0 = _scalar_sum(K, c)
    half = Fraction(n - 1, 2)
    minv = pow(m % n, -1, n)
    v = Fraction(0)
    for i in range(1, c // 2 + 1):
        b = (i * minv) % n
        v -= half if b == 0 else (b - 1) - half
    lam1 = s0 - 8 * m * v
    return Fraction(s0), Fraction(lam1)


@lru_cache(maxsize=2048)
def _singular_sums(spec: GroupSpec):
    """Ordered label -> exact rational chi-subtotal over G minus identity."""
    spec.validate()
    model = _model.family_model(spec)
    model.validate_free_action()
    N, K = model.N, model.K
    c = model.c0 % K
    if model.is_dihedral:
        _, lam1 = _dihedral_rotation_sums(spec.m, spec.n)
        refl = model.reflection_coset()
        rs = _coset_sum(N, K, c, refl.w2m, refl.a_exp, refl.b_exp)
        lam2 = rs.rational_value() * refl.count
        return {"Lambda1": lam1, "Lambda2": lam2, "Lambda3": Fraction(0)}
    labels = {"S0": Fraction(_scalar_sum(K, c))}
    buckets = {}
    for data in model.nonscalar_cosets():
        key = (data.w2m, min(data.a_exp, data.b_exp), max(data.a_exp, data.b_exp))
        bucket = buckets.setdefault(data.label_order, {})
        bucket[key] = bucket.get(key, 0) + data.count
    for rank, order in enumerate(sorted(buckets, reverse=True), start=1):
        total = RootSum(N)
        for (w2m, a_exp, b_exp), count in buckets[order].items():
            total.add_scaled(_coset_sum(N, K, c, w2m, a_exp, b_exp), 0, count)
        labels[f"S{rank}"] = total.rational_value()
    return labels


def s_breakdown(spec: GroupSpec) -> dict:
    """Labelled partial chi-sums: Lambda1..Lambda3 (dihedral) or S0..S3."""
    return dict(_singular_sums(spec))


def singular_point_contribution(spec: GroupSpec) -> Fraction:
    """(1/|G|) of the total chi-sum over non-identity elements."""
    total = sum(_singular_sums(spec).values(), Fraction(0))
    return total / spec.order


def c1E_squared(spec: GroupSpec) -> Fraction:
    return Fraction(spec.order, 4 * spec.m * spec.m)


def minus_K_dot_c1E(spec: GroupSpec) -> Fraction:
    return Fraction(spec.m + 1, spec.m)


def d_E(spec: GroupSpec) -> int:
    """Moduli-space dimension from the group data; even integer >= 2."""
    total = c1E_squared(spec) + minus_K_dot_c1E(spec) + singular_point_contribution(spec)
    if total.denominator != 1:
        raise InternalInvariantError(f"dimension for {spec} is not an integer: {total}")
    d = int(total)
    if d % 2 or d < 2:
        raise InternalInvariantError(f"dimension for {spec} is not an even integer >= 2: {d}")
    return d


def closed_form_d_E(spec: GroupSpec) -> int:
    """The per-family case formula, independent of any group enumeration."""
    spec.validate()
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
    """Brute-force sum of chi over all non-identity matrices.

    Uses the matrix group, the extended character, and per-element cyclotomic
    division; exponentially slower than the engine but fully independent.
    """
    from .bundle import rho
    from .groups import build_group

    group = build_group(spec)
    character = rho(spec, group)
    total = CyclotomicNumber.zero()
    for k in group.keys:
        if k == group.identity:
            continue
        total = total + chi(group.to_matrix(k), character.value(k))
    return total.as_rational()


def s_breakdown_by_elements(spec: GroupSpec) -> dict:
    """Label -> chi subtotal, from per-element evaluation (small groups only)."""
    from .bundle import rho
    from .groups import build_group

    model = _model.family_model(spec)
    group = build_group(spec)
    character = rho(spec, group)
    out = {}
    image_orders = set()
    if not model.is_dihedral:
        image_orders = {
            d.label_order for d in model.nonscalar_cosets()
        }
    ranks = {o: i for i, o in enumerate(sorted(image_orders, reverse=True), start=1)}
    for k in group.keys:
        if k == group.identity:
            continue
        if model.is_dihedral:
            label = _dihedral_label(spec, k)
        elif model.is_scalar(k):
            label = "S0"
        else:
            label = f"S{ranks[model.table.image_order[k[0]]]}"
        v = chi(group.to_matrix(k), character.value(k))
        out[label] = out.get(label, CyclotomicNumber.zero()) + v
    labels = (
        ("Lambda1", "Lambda2", "Lambda3")
        if model.is_dihedral
        else ["S0"] + [f"S{r}" for r in sorted(ranks.values())]
    )
    return {
        lab: out.get(lab, CyclotomicNumber.zero()).as_rational() for lab in labels
    }


def _dihedral_label(spec, key):
    if spec.family == "DD":
        t, l, k = key
        if t == 1:
            return "Lambda2"
        return "Lambda1" if k else "Lambda3"
    l, j = key
    if j & 1:
        return "Lambda2"
    return "Lambda1" if j else "Lambda3"


# ---------------------------------------------------------------------------
# general sector terms of the index formula


@dataclass
class SectorData:
    """Fixed-point stratum data: rotation numbers and rational pairings."""

    dimension: int
    theta_E: CyclotomicNumber
    theta1: CyclotomicNumber | None = None
    theta2: CyclotomicNumber | None = None
    theta: CyclotomicNumber | None = None
    c1E_pairing: Fraction = Fraction(0)
    c1TX_pairing: Fraction = Fraction(0)
    c1N_pairing: Fraction = Fraction(0)


def sector0_term(data: SectorData, isotropy_order: int) -> CyclotomicNumber:
    """Isolated-sector summand, including the 1/|isotropy| fundamental class."""
    if data.dimension != 0:
        raise DomainError("sector0_term expects a 0-dimensional sector")
    one = CyclotomicNumber.one()
    if data.theta1.is_one() or data.theta2.is_one():
        raise DomainError("normal rotation is trivial; not an isolated fixed point")
    den = (one - data.theta1.conjugate()) * (one - data.theta2.conjugate())
    return (data.theta_E - one) * 2 * den.inverse() * Fraction(1, isotropy_order)


def sector1_term(data: SectorData) -> CyclotomicNumber:
    """Two-dimensional-sector summand with its three characteristic terms."""
    if data.dimension != 1:
        raise DomainError("sector1_term expects a 1-dimensional sector")
    one = CyclotomicNumber.one()
    if data.theta.is_one():
        raise DomainError("normal rotation is trivial; not a fixed-point sector")
    inv = (one - data.theta.conjugate()).inverse()
    t1 = data.theta_E * 2 * Fraction(data.c1E_pairing) * inv
    t2 = (data.theta_E - one) * Fraction(data.c1TX_pairing) * inv
    t3 = (
        data.theta.conjugate()
        * (data.theta_E - one)
        * 2
        * Fraction(data.c1N_pairing)
        * inv
        * inv
    )
    return t1 + t2 - t3


def i2_term(c1E_sq: Fraction, K_dot_c1E: Fraction) -> Fraction:
    """Smooth-part contribution c1(E)^2 - c1(E).c1(K)."""
    return Fraction(c1E_sq) - Fraction(K_dot_c1E)


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
            "c1E_sq": _frac_str(self.c1E_squared),
            "minus_K_c1E": _frac_str(self.minus_K_dot_c1E),
            "S": {k: _frac_str(v) for k, v in self.s_breakdown.items()},
            "sum_chi": _frac_str(self.sum_chi),
            "dE": self.d_E,
        }


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def sw_dimension_report(spec: GroupSpec) -> SWDimensionReport:
    labels = s_breakdown(spec)
    total = sum(labels.values(), Fraction(0))
    return SWDimensionReport(
        spec=spec,
        c1E_squared=c1E_squared(spec),
        minus_K_dot_c1E=minus_K_dot_c1E(spec),
        s_breakdown=labels,
        sum_chi=total,
        d_E=d_E(spec),
    )


def sweep_specs(max_order: int):
    """Every valid spec with |G| <= max_order, in a fixed deterministic order."""
    specs = []
    for family in ("DD", "DC"):
        m = 1 if family == "DD" else 2
        while 8 * m <= max_order:
            for n in range(2, max_order // (4 * m) + 1):
                if math.gcd(m, n) == 1:
                    specs.append(GroupSpec(family, m, n).validate())
            m += 2
    for family, unit in (("TT", 24), ("TD", 24), ("OO", 48), ("II", 120)):
        for m in range(1, max_order // unit + 1):
            try:
                specs.append(GroupSpec(family, m).validate())
            except ConstraintError:
                continue
    return specs
