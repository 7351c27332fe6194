"""Microbenchmarks of the cyclotomic core: `mul`, `inverse`, `reduced` and
`root_of_unity` at orders 24, 60, 120 and 240 (`root_of_unity` also at 1870
and 2310), `inverse` of sparse values
(2-3 nonzero coordinates) at orders 241 and 964, and `cyclotomic_polynomial`
from an empty cache at orders 2310, 30030 and 100001.

    PYTHONPATH=src python -m pytest tests/bench_cyclo.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.
"""

import random
from fractions import Fraction

import pytest

from ellsw.cyclo import (
    CyclotomicNumber,
    _root_of_unity,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)

ORDERS = (24, 60, 120, 240)


def _value(n, seed):
    rng = random.Random(seed)
    return CyclotomicNumber(
        n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(n))]
    )


@pytest.mark.parametrize("n", ORDERS)
def test_mul(benchmark, n):
    a, b = _value(n, 1), _value(n, 2)
    benchmark(a.__mul__, b)


@pytest.mark.parametrize("n", ORDERS)
def test_inverse(benchmark, n):
    a = _value(n, 3)
    assert a * benchmark(a.inverse) == 1


def _sparse_value(n, seed):
    """Two or three coordinates +-1, the rest 0: shaped like the per-element
    denominators conj det(g - 1) of DC(2,241), 482 of whose 487 inverted
    values have 2 or 3 nonzero coordinates, at orders 241 and 964."""
    rng = random.Random(seed)
    coeffs = [0] * euler_phi(n)
    for j in rng.sample(range(len(coeffs)), rng.choice((2, 3))):
        coeffs[j] = rng.choice((-1, 1))
    return CyclotomicNumber(n, coeffs)


# Degrees 240 and 480.  Their remainder sequences stay sparse, so a loop
# that stops skipping zero coefficients is 40-75% slower here and within
# noise on the dense values of `test_inverse`.
@pytest.mark.parametrize("n", (241, 964))
@pytest.mark.parametrize("seed", (1, 3))
def test_inverse_sparse(benchmark, n, seed):
    a = _sparse_value(n, seed)
    assert a * benchmark(a.inverse) == 1


@pytest.mark.parametrize("n", ORDERS)
def test_reduced(benchmark, n):
    # A value of the half-order field, stored at order n: one descent.
    x = _value(n // 2, 4).embed(n)
    assert (n // 2) % benchmark(x.reduced).order == 0


# 1870 = 2 * 5 * 11 * 17 and 2310 = 2 * 3 * 5 * 7 * 11 are 2 mod 4 with many
# primes: zeta^7 is written at order 935, and at 165 = 2310 / 14.
@pytest.mark.parametrize("n", ORDERS + (1870, 2310))
def test_root_of_unity(benchmark, n):
    # The uncached path: the monomial written directly at the conductor.
    benchmark.pedantic(
        root_of_unity, args=(7, n), setup=_root_of_unity.cache_clear, rounds=200
    )


@pytest.mark.parametrize("n", (2310, 30030, 100001))
def test_cyclotomic_polynomial_cold(benchmark, n):
    # Phi_n with no Phi_d cached: 2310 and 30030 have 5 and 6 distinct
    # primes, 100001 = 11 * 9091 has degree 90900.
    phi = benchmark.pedantic(
        cyclotomic_polynomial, args=(n,), setup=cyclotomic_polynomial.cache_clear, rounds=3
    )
    assert len(phi) == euler_phi(n) + 1
