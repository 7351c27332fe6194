"""Test-only oracles for `ellsw.cyclo.CyclotomicNumber`: a floating-point
complex embedding and a parser for `to_dict`, both independent of the
library's exact arithmetic.  No float enters `src/`."""

import cmath
from fractions import Fraction

from ellsw.cyclo import CyclotomicNumber


def to_complex(x: CyclotomicNumber) -> complex:
    """Floating-point embedding; sanity checks only, never ground truth."""
    z = 0j
    for j, c in enumerate(x.coeffs):
        if c:
            z += float(c) * cmath.exp(2j * cmath.pi * j / x.order)
    return z


def from_dict(d) -> CyclotomicNumber:
    """The value a `to_dict` document describes."""
    coeffs = [Fraction(s) for s in d["coeffs"]]
    return CyclotomicNumber(int(d["order"]), coeffs)


def root_by_descent(k: int, n: int) -> CyclotomicNumber:
    """zeta_n^k written at order n, then moved to its conductor by the
    generic `reduced()` descent: the construction `root_of_unity` replaced."""
    return CyclotomicNumber._from_dense(n, [0] * (k % n) + [1]).reduced()
