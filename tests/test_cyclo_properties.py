"""Property tests for the integer-backed cyclotomic core.

Values are drawn at mixed orders: squarefree ones, ones with p^2 | n, and
values embedded above their conductor, so `reduced()` has work to do.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsw.cyclo import (
    CyclotomicNumber,
    _poly_modinv,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    root_exponent,
    root_of_unity,
    root_pair,
)
from ellsw.errors import DomainError

# Each draw picks a universe N and orders among its divisors, so mixed-order
# arithmetic stays at lcm orders <= N.  The divisors cover squarefree orders
# (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 42) and orders with p^2 | n
# (4, 8, 9, 12, 18, 20, 24, 25, 28, 36, 45, 50, ...).
UNIVERSES = (24, 36, 40, 45, 60, 72, 84, 90, 100)

settings.register_profile("ellsw", max_examples=120, deadline=None, database=None)
settings.load_profile("ellsw")

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def values_at(draw, n):
    coeffs = draw(st.lists(coefficients, min_size=euler_phi(n), max_size=euler_phi(n)))
    return CyclotomicNumber(n, coeffs)


@st.composite
def values(draw, count):
    """`count` values at orders dividing one universe, each drawn at some
    order n and then often embedded at a multiple of n."""
    divisors = _divisors(draw(st.sampled_from(UNIVERSES)))
    out = []
    for _ in range(count):
        n = draw(st.sampled_from(divisors))
        x = draw(values_at(n))
        out.append(x.embed(draw(st.sampled_from([m for m in divisors if m % n == 0]))))
    return out


@st.composite
def same_order_pair(draw):
    n = draw(st.sampled_from(_divisors(draw(st.sampled_from(UNIVERSES)))))
    return n, draw(values_at(n)), draw(values_at(n))


def _units(n):
    return [t for t in range(1, max(n, 2)) if math.gcd(t, n) == 1]


@given(values(3))
def test_field_axioms(abc):
    a, b, c = abc
    zero, one = CyclotomicNumber.zero(), CyclotomicNumber.one()
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a - a).is_zero()
    assert a - b == -(b - a)


@given(values(2))
def test_inverse(ab):
    a, b = ab
    assume(not a.is_zero())
    inv = a.inverse()
    assert a * inv == 1
    assert inv.inverse() == a
    assert (b / a) * a == b


@given(same_order_pair(), st.data())
def test_galois_is_an_automorphism(pair, data):
    n, a, b = pair
    t = data.draw(st.sampled_from(_units(n)))
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)
    back = pow(t, -1, n) if n > 1 else 1
    assert a.galois(t).galois(back) == a
    assert a.conjugate().conjugate() == a
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9


@given(values(1))
def test_reduced_is_idempotent_and_minimal(a):
    (a,) = a
    r = a.reduced()
    assert r == a
    assert a.order % r.order == 0
    again = r.reduced()
    assert (again.order, again.num, again.den) == (r.order, r.num, r.den)
    assert r.order % 4 != 2
    # Minimal: for each prime p, some automorphism fixing Q(zeta_{n/p})
    # moves r, so r lies in no smaller cyclotomic field.
    n = r.order
    for p in factorize(n):
        d = n // p
        movers = [t for t in _units(n) if t % d == 1 % d and r.galois(t) != r]
        assert movers, (r, p)


@given(values(1), st.sampled_from((2, 3, 4, 5, 6)))
def test_equal_values_hash_equal_across_orders(a, k):
    (a,) = a
    b = a.embed(a.order * k)
    assert a == b
    assert hash(a) == hash(b)
    assert a.to_dict() == b.to_dict()


@given(values(2))
def test_hash_agrees_with_equality(ab):
    a, b = ab
    assume(not b.is_zero())
    c = (a * b) / b  # same value, computed at a larger order
    assert c == a and hash(c) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@given(values(1))
def test_dict_round_trip(a):
    (a,) = a
    d = json.loads(json.dumps(a.to_dict()))
    back = CyclotomicNumber.from_dict(d)
    assert back == a
    assert back.to_dict() == a.to_dict()


@given(values(2))
def test_agrees_with_complex_embedding(ab):
    a, b = ab
    za, zb = a.to_complex(), b.to_complex()
    assert abs((a * b + a - b).to_complex() - (za * zb + za - zb)) < 1e-8
    if not a.is_zero():
        assert abs(a.inverse().to_complex() * za - 1) < 1e-8


@given(st.sampled_from(_divisors(360) + [7, 21, 28, 84, 105]), st.data())
def test_modinv_is_fraction_free(n, data):
    deg = euler_phi(n)
    a = data.draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
    assume(any(a))
    s, c = _poly_modinv(a, cyclotomic_polynomial(n))
    assert all(isinstance(x, int) for x in s) and isinstance(c, int) and c
    x = CyclotomicNumber(n, a)
    assert x * CyclotomicNumber(n, [Fraction(v, c) for v in s + [0] * (deg - len(s))]) == 1


def test_root_exponent_matches_root_of_unity():
    for n in range(1, 241):
        for k in range(n):
            g = math.gcd(k, n)
            assert root_exponent(root_of_unity(k, n)) == (n // g, k // g), (k, n)


def test_root_exponent_rejects_non_roots():
    z5 = root_of_unity(1, 5)
    for value in (CyclotomicNumber.from_rational(2), CyclotomicNumber.zero(), 1 + z5,
                  z5 * Fraction(1, 2), (z5 + z5.conjugate()) * 2):
        with pytest.raises(DomainError):
            root_exponent(value)
        assert value.multiplicative_order() is None


@given(st.integers(1, 90), st.integers(0, 200), st.integers(0, 200))
def test_root_pair_recovers_any_two_roots(d, a, b):
    a, b = sorted((a % d, b % d))
    s = root_of_unity(a, d) + root_of_unity(b, d)
    p = root_of_unity(a + b, d)
    e, x, y = root_pair(s, p)
    g = math.gcd(a, b, d)
    assert (e, x, y) == (d // g, a // g, b // g)


def test_root_pair_rejects_non_roots():
    # A rotation whose angle has cosine 3/5: trace 6/5, determinant 1, infinite order.
    with pytest.raises(DomainError):
        root_pair(CyclotomicNumber.from_rational(Fraction(6, 5)), CyclotomicNumber.one())
    with pytest.raises(DomainError):
        root_pair(CyclotomicNumber.from_rational(3), CyclotomicNumber.one())
