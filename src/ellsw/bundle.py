"""The S^1 character defining the orbifold line bundle at the cone point,
and the equivariant polynomial section that certifies it.

Each family gets a character rho on generators; `extend_character` closes
the assignment over the group with conflict detection.  The section is
f = prod over coset representatives gamma of the fixed linear form
(1, 1) . (gamma z), and the check is f(gz) = rho(g) f(z) on generators.
The scalars Z are central, so gamma g = s_gamma gamma' with gamma -> gamma'
a permutation of G/Z, and f(gz) = V(g) f(z) exactly, where
V(g) = prod_gamma s_gamma is the transfer G -> Z.  The library's check,
`section_equivariance_report`, reads V(g) off the dense keys with integer
arithmetic and compares it with rho(g).  `polynomial_section_report`, the
independent second route, expands f(gz) and rho(g) f(z) as exact
polynomials over the cyclotomic field and compares their coefficients;
its cost is cubic in |Gamma|, so only the tests run it, on small groups.
"""

from __future__ import annotations

import math

from .cyclo import CyclotomicNumber, root_exponent, root_of_unity
from .errors import CharacterConflictError, ConstraintError, DomainError, InternalInvariantError
from .groups import FiniteGroup, GroupSpec, build_group


class Character:
    """A homomorphism from a finite group into the roots of unity.

    Values are stored as exponents of a single primitive root zeta_D, one
    per element key of the backing group.
    """

    def __init__(self, group: FiniteGroup, zeta_order: int, exponents):
        self.group = group
        self.zeta_order = zeta_order
        self.exponents = list(exponents)
        self.generators = []

    def value(self, key) -> CyclotomicNumber:
        return root_of_unity(self.exponents[key], self.zeta_order)

    def value_exp(self, key) -> int:
        return self.exponents[key]


def extend_character(group: FiniteGroup, assignments) -> Character:
    """Extend generator values multiplicatively over the whole group.

    `assignments` is a list of (element key, root-of-unity value); the keys
    must generate the group.  A conflict raises CharacterConflictError with
    the offending element as witness.  Every key enters the frontier once and
    is multiplied by every generator there, so the pass compares
    exps[a g] with exps[a] + e_g for every product relation.  The exponents
    sit in a list indexed by key, since the keys are `range(|G|)`.
    """
    roots = []
    for _, v in assignments:
        try:
            roots.append(root_exponent(v))
        except DomainError as exc:
            raise ConstraintError("character values must be roots of unity") from exc
    d = math.lcm(*(o for o, _ in roots)) if roots else 1
    gen_exps = [(key, e * (d // o)) for (key, _), (o, e) in zip(assignments, roots)]

    exps = [None] * group.order
    exps[group.identity] = 0
    reached = 1
    frontier = [group.identity]
    while frontier:
        new = []
        for a in frontier:
            ea = exps[a]
            for gkey, ge in gen_exps:
                b = group.mult(a, gkey)
                eb = (ea + ge) % d
                old = exps[b]
                if old is None:
                    exps[b] = eb
                    new.append(b)
                elif old != eb:
                    raise CharacterConflictError(
                        f"assignments force zeta_{d}^{old} and zeta_{d}^{eb} "
                        f"on the same element",
                        witness=b,
                    )
        reached += len(new)
        frontier = new
    if reached != group.order:
        raise ConstraintError("assigned elements do not generate the group")
    return Character(group, d, exps)


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


def _coset_representatives(group: FiniteGroup):
    """The first key of each scalar coset: the dense keys `b * K`."""
    return list(range(0, group.order, group.block))


def _pulled_back_forms(group, reps):
    """The form (1, 1) . (gamma z) = (a + c) z1 + (b + d) z2 per gamma."""
    forms = []
    for r in reps:
        (a, b), (c, d) = group.to_matrix(r).entries
        forms.append((a + c, b + d))
    return forms


def _section_inputs(spec: GroupSpec):
    """The group, its bundle character and the coset representatives."""
    group = build_group(spec)
    character = rho(spec, group)
    reps = _coset_representatives(group)
    if len(reps) != spec.gamma_order:
        raise InternalInvariantError("coset representative count is off")
    return group, character, reps


def _report(character: Character, holds) -> dict:
    """The report shape of both routes: rho(g) per generator where the
    identity holds, None where it fails."""
    scalars = {g: character.value(g) if ok else None for g, ok in holds.items()}
    return {
        "character": character,
        "scalars": scalars,
        "ok": all(v is not None for v in scalars.values()),
    }


def section_equivariance_report(spec: GroupSpec) -> dict:
    """Check f(gz) = rho(g) f(z) on generators by the transfer.

    Key `b * K + s` is the coset representative `b * K` times mu_2m^s, so
    for a representative r and a generator g, p = r g is the scalar
    mu_2m^(p % K) times the representative p - p % K.  Hence
    f(gz) = mu_2m^(sum_r p % K) f(z), and the identity holds iff that
    exponent over 2m and rho(g) = zeta_D^e name the same root of unity.
    """
    group, character, reps = _section_inputs(spec)
    K, d = group.block, character.zeta_order
    holds = {}
    for gkey in group.gens:
        t = sum(group.mult(r, gkey) % K for r in reps)
        holds[gkey] = (t * d - character.value_exp(gkey) * K) % (K * d) == 0
    return _report(character, holds)


def verify_section_equivariance(spec: GroupSpec) -> bool:
    """True iff the equivariant-section identity holds for all generators."""
    return section_equivariance_report(spec)["ok"]


def polynomial_section_report(spec: GroupSpec) -> dict:
    """The section check as exact polynomial identities, in the same shape
    as `section_equivariance_report`.

    f is expanded once from the forms of the exact matrices; f(gz) is
    expanded from the forms composed with g, and both sides are compared
    coefficient by coefficient.  The comparison reads the exact matrices
    and never `mult`, so it is independent of the transfer's key arithmetic.
    """
    group, character, reps = _section_inputs(spec)
    forms = _pulled_back_forms(group, reps)
    f = _product_of_linear(forms)
    holds = {}
    for gkey in group.gens:
        (m11, m12), (m21, m22) = group.to_matrix(gkey).entries
        composed = [(a * m11 + b * m21, a * m12 + b * m22) for a, b in forms]
        holds[gkey] = _product_of_linear(composed) == f.scale(character.value(gkey))
    return _report(character, holds)
