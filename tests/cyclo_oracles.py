"""Test-only oracles for `ellsw.cyclo.CyclotomicNumber`: a floating-point
complex embedding, independent of the library's exact arithmetic, and the
constructions that `root_of_unity`, the dihedral `to_matrix` and the trace
row replaced.  No float enters `src/`."""

import cmath

from ellsw.cyclo import CyclotomicNumber, _squarefree_cofactors, euler_phi, root_of_unity


def to_complex(x: CyclotomicNumber) -> complex:
    """Floating-point embedding; sanity checks only, never ground truth."""
    z = 0j
    for j, c in enumerate(x.coeffs):
        if c:
            z += float(c) * cmath.exp(2j * cmath.pi * j / x.order)
    return z


def root_by_descent(k: int, n: int) -> CyclotomicNumber:
    """zeta_n^k written at order n, then moved to its conductor by the
    generic `reduced()` descent: the construction `root_of_unity` replaced."""
    return CyclotomicNumber._from_dense(n, [0] * (k % n) + [1]).reduced()


def dihedral_matrix_by_products(model, key):
    """The DD/DC matrix of `key` built as `DihedralModel.to_matrix` once did:
    the scalar mu_4m^(2s + dc*t) times the roots zeta_2n^(+-l), one field
    product per nonzero entry."""
    t, l, s = model.decode(key)
    scal = root_of_unity(2 * s + model._dc * t, 4 * model.m)
    a, ai = root_of_unity(l, 2 * model.n), root_of_unity(-l, 2 * model.n)
    zero = CyclotomicNumber.zero()
    if t == 0:
        return (scal * a, zero), (zero, scal * ai)
    return (zero, scal * ai), (-(scal * a), zero)


def kluyver_trace_row(n: int):
    """Tr(zeta_n^i) over Q for i < phi(n) by Kluyver's formula, the sum of
    d mu(n/d) over the d dividing gcd(i, n): the row `cyclo._trace_row`
    built before it read `ramanujan_sum`."""
    row = [0] * euler_phi(n)
    for d, s in _squarefree_cofactors(n):
        for i in range(0, len(row), d):
            row[i] += s * d
    return tuple(row)
