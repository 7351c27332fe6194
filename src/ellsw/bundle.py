"""The S^1 character defining the orbifold line bundle at the cone point,
and the equivariant polynomial section that certifies it.

Each family gets a character rho on generators; `extend_character` closes
the assignment over the group with conflict detection.  The section check
forms f = prod over coset representatives gamma of the pulled-back linear
form, substitutes z -> gz, and compares f(gz) with rho(g) f(z) as exact
polynomials.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .cyclo import CyclotomicNumber, root_exponent, root_of_unity
from .errors import CharacterConflictError, ConstraintError, DomainError, InternalInvariantError
from .groups import FiniteGroup, GroupSpec, build_group


class Character:
    """A homomorphism from a finite group into the roots of unity.

    Values are stored as exponents of a single primitive root zeta_D, one
    per element index of the backing group.
    """

    def __init__(self, group: FiniteGroup, zeta_order: int, exponents, generators=None):
        self.group = group
        self.zeta_order = zeta_order
        self.exponents = list(exponents)
        self.generators = generators or []

    def value(self, key) -> CyclotomicNumber:
        return root_of_unity(self.exponents[self.group.index[key]], self.zeta_order)

    def value_exp(self, key) -> int:
        return self.exponents[self.group.index[key]]

    def is_multiplicative(self, max_pairs: int = 1_000_000) -> bool:
        g = self.group
        d = self.zeta_order
        keys = g.keys
        if len(keys) ** 2 > max_pairs:
            rng = random.Random(0)
            pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(max_pairs)]
        else:
            pairs = [(a, b) for a in keys for b in keys]
        for a, b in pairs:
            if (self.value_exp(a) + self.value_exp(b) - self.value_exp(g.mult(a, b))) % d:
                return False
        return True

    def to_dict(self) -> dict:
        gens = self.generators or [("g", k) for k in self.group.gens]
        return {
            "generators": [name for name, _ in gens],
            "values": [
                f"zeta_{self.zeta_order}^{self.value_exp(key)}" for _, key in gens
            ],
        }


def extend_character(group: FiniteGroup, assignments) -> Character:
    """Extend generator values multiplicatively over the whole group.

    `assignments` is a list of (element key, root-of-unity value); the keys
    must generate the group.  A conflict raises CharacterConflictError with
    the offending element as witness.
    """
    roots = []
    for _, v in assignments:
        try:
            roots.append(root_exponent(v))
        except DomainError as exc:
            raise ConstraintError("character values must be roots of unity") from exc
    d = math.lcm(*(o for o, _ in roots)) if roots else 1
    gen_exps = [(key, e * (d // o)) for (key, _), (o, e) in zip(assignments, roots)]

    exps = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        new = []
        for a in frontier:
            ea = exps[a]
            for gkey, ge in gen_exps:
                b = group.mult(a, gkey)
                eb = (ea + ge) % d
                if b in exps:
                    if exps[b] != eb:
                        raise CharacterConflictError(
                            f"assignments force zeta_{d}^{exps[b]} and zeta_{d}^{eb} "
                            f"on the same element",
                            witness=b,
                        )
                else:
                    exps[b] = eb
                    new.append(b)
        frontier = new
    if len(exps) != group.order:
        raise ConstraintError("assigned elements do not generate the group")
    # Closure fixed a value per element; verify every product relation.
    for a in group.keys:
        ea = exps[a]
        for gkey, ge in gen_exps:
            if (ea + ge - exps[group.mult(a, gkey)]) % d:
                raise CharacterConflictError(
                    "extension is not multiplicative", witness=a
                )
    table = [0] * group.order
    for k, e in exps.items():
        table[group.index[k]] = e
    return Character(group, d, table)


_GEN_NAMES = {
    "DD": ("h", "x", "y"),
    "DC": ("h^2", "hx", "y"),
    "TT": ("h", "x", "y"),
    "TD": ("h^3", "x", "hy"),
    "OO": ("h", "x", "y"),
    "II": ("h", "x", "y"),
}


def rho(spec: GroupSpec, group: FiniteGroup | None = None) -> Character:
    """The bundle character, extended from the family's generator table."""
    spec.validate()
    if group is None:
        group = build_group(spec)
    m = spec.m
    two_m = 2 * m
    c0 = spec.gamma_order
    h_key, x_key, y_key = group.gens
    mu = lambda e: root_of_unity(e, two_m)
    one = CyclotomicNumber.one()
    f = spec.family
    if f == "DD":
        n = spec.n
        assignments = [(h_key, mu(2 * n)), (x_key, -one if n % 2 else one), (y_key, one)]
    elif f == "DC":
        n = spec.n
        minus_mu = -root_of_unity(1, two_m)
        assignments = [(h_key, mu(2 * n)), (x_key, minus_mu**n), (y_key, one)]
    elif f == "TD":
        assignments = [(h_key, mu(12)), (x_key, one), (y_key, mu(4))]
    else:
        assignments = [(h_key, mu(c0)), (x_key, one), (y_key, one)]
    ch = extend_character(group, assignments)
    ch.generators = list(zip(_GEN_NAMES[f], group.gens))
    return ch


# ---------------------------------------------------------------------------
# bivariate polynomials over a cyclotomic field


class BivariatePolynomial:
    """Sparse polynomial in two variables with cyclotomic coefficients."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    @staticmethod
    def linear(a: CyclotomicNumber, b: CyclotomicNumber) -> "BivariatePolynomial":
        return BivariatePolynomial({(1, 0): a, (0, 1): b})

    def is_zero(self) -> bool:
        return not self.terms

    def mul(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                k = (p1 + p2, q1 + q2)
                c = c1 * c2
                if k in out:
                    out[k] = out[k] + c
                else:
                    out[k] = c
        return BivariatePolynomial(out)

    def scale(self, c) -> "BivariatePolynomial":
        return BivariatePolynomial({k: v * c for k, v in self.terms.items()})

    def substitute_linear(self, mat) -> "BivariatePolynomial":
        """Expand self(M z) by binomial products; exact but slower than
        composing a factored form, so reserve it for small degrees."""
        (m11, m12), (m21, m22) = mat
        row1 = BivariatePolynomial({(1, 0): m11, (0, 1): m12})
        row2 = BivariatePolynomial({(1, 0): m21, (0, 1): m22})
        out = BivariatePolynomial()
        for (p, q), c in self.terms.items():
            term = BivariatePolynomial({(0, 0): c})
            for _ in range(p):
                term = term.mul(row1)
            for _ in range(q):
                term = term.mul(row2)
            out = out.add(term)
        return out

    def add(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return BivariatePolynomial(out)

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    def __repr__(self):
        return f"BivariatePolynomial({len(self.terms)} terms)"


def _product_of_linear(forms) -> BivariatePolynomial:
    out = BivariatePolynomial({(0, 0): CyclotomicNumber.one()})
    for a, b in forms:
        out = out.mul(BivariatePolynomial.linear(a, b))
    return out


def _coset_representatives(group: FiniteGroup, model):
    """First element of each scalar coset in construction order."""
    seen = set()
    reps = []
    for k in group.keys:
        sig = _coset_signature(model, k)
        if sig not in seen:
            seen.add(sig)
            reps.append(k)
    return reps


def _coset_signature(model, key):
    if model.is_dihedral:
        if model.spec.family == "DD":
            t, l, _ = key
            return (t, l)
        l, j = key
        return (l, j & 1)
    return key[0]


def _pulled_back_forms(group, reps, u):
    u1, u2 = (CyclotomicNumber.from_rational(c) for c in u)
    forms = []
    for r in reps:
        (a, b), (c, d) = group.to_matrix(r).entries
        forms.append((u1 * a + u2 * c, u1 * b + u2 * d))
    return forms


def section_equivariance_report(spec: GroupSpec, u=(1, 1), trials: int = 8) -> dict:
    """Check f(gz) = rho(g) f(z) on generators; return the scalar per generator.

    The product polynomial is expanded once; f(gz) is expanded from the
    composed linear factors, so both sides are compared coefficient by
    coefficient as exact polynomial identities.
    """
    spec.validate()
    group = build_group(spec)
    from . import _model

    model = _model.family_model(spec)
    character = rho(spec, group)
    reps = _coset_representatives(group, model)
    if len(reps) != spec.gamma_order:
        raise InternalInvariantError("coset representative count is off")

    rng = random.Random(20240229)
    attempt = tuple(Fraction(c) for c in u)
    for trial in range(max(1, trials)):
        forms = _pulled_back_forms(group, reps, attempt)
        if all(not (a.is_zero() and b.is_zero()) for a, b in forms):
            break
        attempt = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)))
    else:
        raise ConstraintError("could not find a generic linear form")

    f = _product_of_linear(forms)
    if f.is_zero():
        raise ConstraintError("degenerate linear form: the section vanishes")
    report = {}
    for gkey in group.gens:
        mat = group.to_matrix(gkey).entries
        composed = []
        for a, b in forms:
            (m11, m12), (m21, m22) = mat
            composed.append((a * m11 + b * m21, a * m12 + b * m22))
        fg = _product_of_linear(composed)
        rho_g = character.value(gkey)
        if fg != f.scale(rho_g):
            report[gkey] = None
            continue
        report[gkey] = rho_g
    return {
        "group": group,
        "character": character,
        "scalars": report,
        "ok": all(v is not None for v in report.values()),
    }


def verify_section_equivariance(spec: GroupSpec, u=(1, 1), trials: int = 8) -> bool:
    """True iff the equivariant-section identity holds for all generators."""
    return section_equivariance_report(spec, u, trials)["ok"]
