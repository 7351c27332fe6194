"""Microbenchmarks of the cyclotomic core: `mul`, `inverse`, `reduced` and
`root_of_unity` at orders 24, 60, 120 and 240, and `cyclotomic_polynomial`
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


@pytest.mark.parametrize("n", ORDERS)
def test_reduced(benchmark, n):
    # A value of the half-order field, stored at order n: one descent.
    x = _value(n // 2, 4).embed(n)
    assert (n // 2) % benchmark(x.reduced).order == 0


@pytest.mark.parametrize("n", ORDERS)
def test_root_of_unity(benchmark, n):
    # The uncached path: canonical monomial, then reduction to the conductor.
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
