"""Property tests for the integer-backed cyclotomic core.

Values are drawn at mixed orders: squarefree ones, ones with p^2 | n, and
values embedded above their conductor, so `reduced()` has work to do.
"""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellsw.cyclo import (
    CyclotomicNumber,
    _poly_modinv,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    root_of_unity,
    root_pair,
)
from ellsw import cyclo
from ellsw.errors import DomainError
from ellsw.groups import build_binary_polyhedral, eigen_exponents

from cyclo_oracles import to_complex

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


# Ints (negative and zero included) and Fractions (denominators above 1
# included) as the rational operand of + and -.
rationals = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)


@given(st.integers(1, 60).flatmap(values_at), rationals)
@example(x=CyclotomicNumber(12, [Fraction(1, 2), 0, 3, -1]), q=0)
@example(x=CyclotomicNumber(1, [Fraction(-5, 6)]), q=Fraction(5, 6))
@example(x=CyclotomicNumber(9, [Fraction(1, 3)] + [0] * 5), q=Fraction(-2, 9))
def test_rational_operand_moves_only_the_constant_coordinate(x, q):
    c0, *rest = x.coeffs
    rest = tuple(rest)
    as_value = CyclotomicNumber.from_rational(q)
    cases = [
        (x + q, (c0 + q, *rest)),
        (q + x, (c0 + q, *rest)),
        (x + as_value, (c0 + q, *rest)),
        (as_value + x, (c0 + q, *rest)),
        (x - q, (c0 - q, *rest)),
        (x - as_value, (c0 - q, *rest)),
        (q - x, (q - c0, *(-c for c in rest))),
        (as_value - x, (q - c0, *(-c for c in rest))),
    ]
    for got, want in cases:
        assert got.order == x.order
        assert got.coeffs == want
        assert got.den > 0 and math.gcd(*got.num, got.den) == 1
    assert (x == q) is (c0 == q and not any(rest))
    assert (x == as_value) is (x == q)


@given(same_order_pair(), st.data())
def test_galois_is_an_automorphism(pair, data):
    n, a, b = pair
    t = data.draw(st.sampled_from(_units(n)))
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)
    back = pow(t, -1, n) if n > 1 else 1
    assert a.galois(t).galois(back) == a
    assert a.conjugate().conjugate() == a
    assert abs(to_complex(a.conjugate()) - to_complex(a).conjugate()) < 1e-9


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


@given(values(2))
def test_hash_agrees_with_equality(ab):
    a, b = ab
    assume(not b.is_zero())
    c = (a * b) / b  # same value, computed at a larger order
    assert c == a and hash(c) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@given(values(2))
def test_agrees_with_complex_embedding(ab):
    a, b = ab
    za, zb = to_complex(a), to_complex(b)
    assert abs(to_complex(a * b + a - b) - (za * zb + za - zb)) < 1e-8
    if not a.is_zero():
        assert abs(to_complex(a.inverse()) * za - 1) < 1e-8


@given(st.sampled_from(_divisors(360) + [7, 21, 28, 84, 105]), st.data())
def test_modinv_is_fraction_free(n, data):
    deg = euler_phi(n)
    a = data.draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
    assume(any(a))
    s, c = _poly_modinv(a, cyclotomic_polynomial(n))
    assert all(isinstance(x, int) for x in s) and isinstance(c, int) and c
    x = CyclotomicNumber(n, a)
    assert x * CyclotomicNumber(n, [Fraction(v, c) for v in s + [0] * (deg - len(s))]) == 1


@contextlib.contextmanager
def even_root_tables():
    """Fail unless every root table built inside the block, at least one,
    is built at an even order: the one layout `_root_table` has."""
    build, orders = cyclo._root_table, []

    def record(n):
        orders.append(n)
        return build(n)

    with mock.patch.object(cyclo, "_root_table", record):
        yield
    assert orders and all(n % 2 == 0 for n in orders), orders


def test_multiplicative_order_matches_root_of_unity():
    with even_root_tables():
        for n in range(1, 241):
            for k in range(n):
                assert root_of_unity(k, n).multiplicative_order() == n // math.gcd(k, n), (k, n)


def test_multiplicative_order_rejects_non_roots():
    z5 = root_of_unity(1, 5)
    for value in (CyclotomicNumber.from_rational(2), CyclotomicNumber.zero(), 1 + z5,
                  z5 * Fraction(1, 2), (z5 + z5.conjugate()) * 2):
        assert value.multiplicative_order() is None


@given(st.integers(1, 90), st.integers(0, 200), st.integers(0, 200))
def test_root_pair_recovers_any_two_roots(d, a, b):
    a, b = sorted((a % d, b % d))
    s = root_of_unity(a, d) + root_of_unity(b, d)
    p = root_of_unity(a + b, d)
    with even_root_tables():
        e, x, y = root_pair(s, p)
    g = math.gcd(a, b, d)
    assert (e, x, y) == (d // g, a // g, b // g)


def test_eigen_exponents_build_root_tables_at_even_orders():
    with even_root_tables():
        for g in build_binary_polyhedral("O").matrices():
            d, a, b = eigen_exponents(g)
            assert root_of_unity(a, d) + root_of_unity(b, d) == g.trace(), g
            assert root_of_unity(a + b, d) == g.det(), g


def test_root_pair_rejects_non_roots():
    # A rotation whose angle has cosine 3/5: trace 6/5, determinant 1, infinite order.
    with pytest.raises(DomainError):
        root_pair(CyclotomicNumber.from_rational(Fraction(6, 5)), CyclotomicNumber.one())
    with pytest.raises(DomainError):
        root_pair(CyclotomicNumber.from_rational(3), CyclotomicNumber.one())
