"""The S^1 character defining the orbifold line bundle at the cone point,
and the equivariant polynomial section that certifies it.

`generator_table` gives rho on the family's three generators as powers of
mu_2m; `rho` extends those exponents over the group by `extend_character`,
the one extension pass on integer exponents, for the readers of per-key
values.  The section is f = prod over coset representatives gamma of the
fixed linear form (1, 1) . (gamma z), and the check is f(gz) = rho(g) f(z)
on generators.  The scalars Z are central, so gamma g = s_gamma gamma' with
gamma -> gamma' a permutation of G/Z, and f(gz) = V(g) f(z) exactly, where
V(g) = prod_gamma s_gamma is the transfer G -> Z, a homomorphism.  So
agreement with the table on the generators is the whole check, and both
routes read only the table: the library's `section_equivariance_report`
reads V(g) off the dense keys with integer arithmetic;
`polynomial_section_report`, the independent second route, expands f(gz)
and rho(g) f(z) as exact polynomials over the cyclotomic field, at a cost
cubic in |Gamma|, so only the tests run it, on small groups.  Each report
gives the table's rows (name, key, e) as `generators`, the verdict on each
in that order as `holds`, and their conjunction as `ok`.
"""

from __future__ import annotations

import math

from .cyclo import CyclotomicNumber, root_of_unity
from .errors import CharacterConflictError, ConstraintError, InternalInvariantError
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

    def value(self, key) -> CyclotomicNumber:
        return root_of_unity(self.exponents[key], self.zeta_order)

    def value_exp(self, key) -> int:
        return self.exponents[key]


def extend_character(group: FiniteGroup, order: int, assignments) -> Character:
    """Extend generator values multiplicatively over the whole group.

    `assignments` is a list of (element key, e), each meaning zeta_order^e;
    the keys must generate the group.  The character is stored over the
    least order that holds every value, d = order // gcd(order, e_1, ...).
    A conflict raises CharacterConflictError with the offending element as
    witness.  Every key enters the queue once and is multiplied by every
    generator there, so the pass compares exps[a g] with exps[a] + e_g for
    every product relation.  The exponents sit in a list indexed by key,
    since the keys are `range(|G|)`.
    """
    g = math.gcd(order, *(e for _, e in assignments))
    d = order // g
    gen_exps = [(key, e // g) for key, e in assignments]

    exps = [None] * group.order
    exps[group.identity] = 0
    queue = [group.identity]
    for a in queue:  # queue grows as new keys are reached
        ea = exps[a]
        for gkey, ge in gen_exps:
            b = group.mult(a, gkey)
            eb = (ea + ge) % d
            old = exps[b]
            if old is None:
                exps[b] = eb
                queue.append(b)
            elif old != eb:
                raise CharacterConflictError(
                    f"assignments force zeta_{d}^{old} and zeta_{d}^{eb} "
                    f"on the same element",
                    witness=b,
                )
    if len(queue) != group.order:
        raise ConstraintError("assigned elements do not generate the group")
    return Character(group, d, exps)


def generator_table(spec: GroupSpec):
    """The bundle character on the family's generators, in the order of
    `model.generators()`: one row (name, e) per generator, with
    rho(g) = mu_2m^e and 0 <= e < 2m."""
    n = spec.n
    if spec.family == "DD":
        rows = [("h", 2 * n), ("x", spec.m * n), ("y", 0)]  # rho(x) = (-1)^n
    elif spec.family == "DC":
        rows = [("h^2", 2 * n), ("hx", (spec.m + 1) * n), ("y", 0)]  # rho(hx) = (-mu_2m)^n
    elif spec.family == "TD":
        rows = [("h^3", 12), ("x", 0), ("hy", 4)]
    else:
        rows = [("h", spec.gamma_order), ("x", 0), ("y", 0)]
    return [(name, e % (2 * spec.m)) for name, e in rows]


def rho(spec: GroupSpec, group: FiniteGroup | None = None) -> Character:
    """The bundle character on every key: the exponents of mu_2m in
    `generator_table`, extended over the group by `extend_character`."""
    if group is None:
        group = build_group(spec)
    rows = zip(group.gens, generator_table(spec))
    return extend_character(group, 2 * spec.m, [(g, e) for g, (_, e) in rows])


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
        return self.terms == other.terms

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
    """The group, the generator table with each row's key, as (name, key, e),
    and the coset representatives."""
    group = build_group(spec)
    reps = _coset_representatives(group)
    if len(reps) != spec.gamma_order:
        raise InternalInvariantError(
            f"{len(reps)} coset representatives of {spec}, expected {spec.gamma_order}",
            witness={"spec": spec, "found": len(reps), "expected": spec.gamma_order},
        )
    rows = [(name, g, e) for g, (name, e) in zip(group.gens, generator_table(spec))]
    return group, rows, reps


def section_equivariance_report(spec: GroupSpec) -> dict:
    """Check f(gz) = rho(g) f(z) on generators by the transfer.

    Key `b * K + s` is the coset representative `b * K` times mu_2m^s, so
    for a representative r and a generator g, p = r g is the scalar
    mu_2m^(p % K) times the representative p - p % K.  Hence
    f(gz) = V(g) f(z) with V(g) = mu_2m^(sum_r p % K).  The report adds
    `transfer`, that exponent mod K = 2m per generator, for the table's.
    """
    group, rows, reps = _section_inputs(spec)
    K = group.block
    transfer = [sum(group.mult(r, g) % K for r in reps) % K for _, g, _ in rows]
    holds = [t == e for t, (_, _, e) in zip(transfer, rows)]
    return {"generators": rows, "holds": holds, "ok": all(holds), "transfer": transfer}


def verify_section_equivariance(spec: GroupSpec) -> bool:
    """True iff the equivariant-section identity holds for all generators."""
    return section_equivariance_report(spec)["ok"]


def polynomial_section_report(spec: GroupSpec) -> dict:
    """The section check as exact polynomial identities, in the shape of
    `section_equivariance_report` without `transfer`.

    f is expanded once from the forms of the exact matrices; f(gz) is
    expanded from the forms composed with g and compared, coefficient by
    coefficient, with f scaled by the table value rho(g).  The comparison
    reads the exact matrices and never `mult`, so it is independent of the
    transfer's key arithmetic.
    """
    group, rows, reps = _section_inputs(spec)
    forms = _pulled_back_forms(group, reps)
    f = _product_of_linear(forms)
    holds = []
    for _, g, e in rows:
        (m11, m12), (m21, m22) = group.to_matrix(g).entries
        composed = [(a * m11 + b * m21, a * m12 + b * m22) for a, b in forms]
        holds.append(_product_of_linear(composed) == f.scale(root_of_unity(e, group.block)))
    return {"generators": rows, "holds": holds, "ok": all(holds)}
