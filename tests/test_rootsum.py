import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellsw.cyclo import CyclotomicNumber, root_of_unity
from ellsw.errors import InternalInvariantError
from ellsw.rootsum import RootSum, ramanujan_sum


def test_inv_one_minus_matches_field_inverse():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 9, 12, 15, 20, 30])
        e = rng.randrange(1, n)
        rs = RootSum.inv_one_minus(n, e)
        value = rs.to_cyclotomic()
        expect = (CyclotomicNumber.one() - root_of_unity(e, n)).inverse()
        assert value == expect, (n, e)


def test_mul_agrees_with_field_multiplication():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice([8, 12, 20])
        a = RootSum(n, {rng.randrange(n): Fraction(rng.randint(-3, 3)) for _ in range(3)})
        b = RootSum(n, {rng.randrange(n): Fraction(rng.randint(-3, 3)) for _ in range(3)})
        assert a.mul(b).to_cyclotomic() == a.to_cyclotomic() * b.to_cyclotomic()


def test_ramanujan_sums():
    # c_n(e) = sum of zeta_n^{et} over t coprime to n, checked directly.
    for n in (1, 2, 6, 8, 12, 30):
        for e in range(n):
            direct = sum(
                (root_of_unity(e * t, n) for t in range(1, n + 1) if _coprime(t, n)),
                CyclotomicNumber.zero(),
            )
            assert direct == ramanujan_sum(n, e), (n, e)


def _coprime(a, b):
    return math.gcd(a, b) == 1


@st.composite
def _root_sums(draw):
    """Sums built from whole gcd classes of exponents mod n, each class with
    one coefficient or with one exponent's coefficient perturbed, plus stray
    monomials that may break a class."""
    n = draw(st.integers(1, 120))
    coef = st.integers(-3, 3).map(Fraction)
    c = {}
    divisors = [g for g in range(1, n + 1) if n % g == 0]
    for g in draw(st.lists(st.sampled_from(divisors), max_size=4, unique=True)):
        orbit = [f for f in range(n) if math.gcd(f, n) == g]
        v = draw(coef)
        c.update(dict.fromkeys(orbit, v))
        if draw(st.booleans()):
            c[draw(st.sampled_from(orbit))] = v + draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        c[draw(st.integers(0, n - 1))] = draw(coef)
    return RootSum(n, c)


@settings(max_examples=300, deadline=None)
@given(_root_sums())
@example(RootSum(12, {1: Fraction(2), 5: Fraction(2), 7: Fraction(2), 11: Fraction(2)}))
@example(RootSum(12, {1: Fraction(2), 5: Fraction(2), 7: Fraction(2)}))
def test_galois_stability_is_literal_invariance(rs):
    n = rs.n
    literal = all(rs.galois_permuted(t).c == rs.c for t in range(1, n + 1) if _coprime(t, n))
    assert rs.is_galois_stable() == literal


def test_rational_value_of_symmetric_sum():
    # 1/(1-z) + 1/(1-z^2) + ... over all nontrivial 5th roots equals (5-1)/2.
    n = 5
    total = RootSum(n)
    for e in range(1, n):
        total.add_scaled(RootSum.inv_one_minus(n, e), 0, 1)
    assert total.rational_value() == Fraction(4, 2)


def test_rational_value_rejects_unstable_sums():
    rs = RootSum.monomial(5, 1)
    with pytest.raises(InternalInvariantError):
        rs.rational_value()


def test_stable_primitive_orbit_sums_to_moebius_value():
    # Twice the sum of all primitive 12th roots: 2 mu(12) = 0.
    rs = RootSum(12, {1: Fraction(2), 5: Fraction(2), 7: Fraction(2), 11: Fraction(2)})
    assert rs.is_galois_stable()
    assert rs.rational_value() == 0
    assert rs.to_cyclotomic().as_rational() == 0
