import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellsw.cyclo import CyclotomicNumber, euler_phi, root_of_unity
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


_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _sums(n):
    """Sums with arbitrary rational coefficients, not just integer ones."""
    return st.dictionaries(st.integers(0, n - 1), _FRACTIONS, max_size=6).map(lambda c: RootSum(n, c))


def _assert_well_formed(rs):
    assert type(rs.den) is int and rs.den > 0
    assert all(type(v) is int and v != 0 for v in rs.c.values())
    assert all(0 <= e < rs.n for e in rs.c)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_storage_agrees_with_field_arithmetic(data):
    n = data.draw(st.integers(2, 40))
    a, b = data.draw(_sums(n)), data.draw(_sums(n))
    _assert_well_formed(a)
    za, zb = a.to_cyclotomic(), b.to_cyclotomic()

    product = a.mul(b)
    _assert_well_formed(product)
    assert product.to_cyclotomic() == za * zb

    shift = data.draw(st.integers(-2 * n, 2 * n))
    coef = data.draw(st.one_of(st.integers(-4, 4), _FRACTIONS))
    a.add_scaled(b, shift, coef)
    _assert_well_formed(a)
    assert a.to_cyclotomic() == za + root_of_unity(shift, n) * coef * zb

    t = data.draw(st.sampled_from([t for t in range(1, n) if _coprime(t, n)]))
    image = b.galois_permuted(t)
    _assert_well_formed(image)
    assert image.to_cyclotomic() == zb.galois(t)

    e1, e2 = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
    inverse = RootSum.inv_one_minus(n, e1).mul(RootSum.inv_one_minus(n, e2))
    _assert_well_formed(inverse)
    one = CyclotomicNumber.one()
    expect = ((one - root_of_unity(e1, n)) * (one - root_of_unity(e2, n))).inverse()
    assert inverse.to_cyclotomic() == expect


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rational_value_of_rational_coefficient_sums(data):
    n = data.draw(st.integers(3, 60))
    divisors = [g for g in range(1, n + 1) if n % g == 0]
    total = RootSum(n)
    for g in data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=4, unique=True)):
        orbit = {f: 1 for f in range(n) if math.gcd(f, n) == g}
        total.add_scaled(RootSum(n, orbit), 0, data.draw(_FRACTIONS))
    _assert_well_formed(total)
    assert total.rational_value() == total.to_cyclotomic().as_rational()

    # Galois-stable sums of inverse expansions, accumulated with int and
    # Fraction coefficients, stay certifiable.
    coef = data.draw(st.one_of(st.integers(-4, 4), _FRACTIONS))
    for e in range(1, n):
        total.add_scaled(RootSum.inv_one_minus(n, e), 0, coef)
    _assert_well_formed(total)
    assert total.rational_value() == total.to_cyclotomic().as_rational()

    # Moving one exponent of a class with more than one member breaks the
    # certificate, whatever the value.
    e = data.draw(st.sampled_from([f for f in range(n) if euler_phi(n // math.gcd(f, n)) > 1]))
    total.add_scaled(RootSum.monomial(n, e, data.draw(_FRACTIONS.filter(bool))))
    assert not total.is_galois_stable()
    with pytest.raises(InternalInvariantError):
        total.rational_value()
