"""Test-only oracle for the section check of `ellsw.bundle`: the identity
f(gz) = rho(g) f(z) expanded as exact polynomials over the cyclotomic field.

It reads `bundle._section_inputs`, as the library's transfer route does, so
both routes read only the generator table, and a test that monkeypatches
`bundle.generator_table` reaches both.  It never calls `mult`: f and f(gz)
come from the exact matrices, so it is independent of the transfer's key
arithmetic.  Its cost is cubic in |Gamma|, so the tests run it on small
groups only.
"""

from ellsw import bundle
from ellsw.bundle import BivariatePolynomial
from ellsw.cyclo import CyclotomicNumber, root_of_unity


def _product_of_linear(forms) -> BivariatePolynomial:
    out = BivariatePolynomial({(0, 0): CyclotomicNumber.one()})
    for a, b in forms:
        out = out.mul(BivariatePolynomial({(1, 0): a, (0, 1): b}))
    return out


def _pulled_back_forms(group, reps):
    """The form (1, 1) . (gamma z) = (a + c) z1 + (b + d) z2 per gamma."""
    forms = []
    for r in reps:
        (a, b), (c, d) = group.to_matrix(r).entries
        forms.append((a + c, b + d))
    return forms


def polynomial_section_report(spec) -> dict:
    """The section check as exact polynomial identities, in the shape of
    `bundle.section_equivariance_report` without `transfer`.

    f is expanded once from the forms of the exact matrices; f(gz) is
    expanded from the forms composed with g and compared, coefficient by
    coefficient, with f scaled by the table value rho(g).
    """
    group, rows, reps = bundle._section_inputs(spec)
    forms = _pulled_back_forms(group, reps)
    f = _product_of_linear(forms)
    holds = []
    for _, g, e in rows:
        (m11, m12), (m21, m22) = group.to_matrix(g).entries
        composed = [(a * m11 + b * m21, a * m12 + b * m22) for a, b in forms]
        holds.append(_product_of_linear(composed) == f.scale(root_of_unity(e, group.block)))
    return {"generators": rows, "holds": holds, "ok": all(holds)}
