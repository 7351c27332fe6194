import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from ellsw import cyclo
from ellsw.cyclo import CyclotomicNumber, cyclotomic_polynomial, euler_phi, power, root_of_unity
from ellsw.errors import NotRationalError

from cyclo_oracles import kluyver_trace_row, root_by_descent, to_complex


def test_root_of_unity_identity_cases():
    assert root_of_unity(0, 12) == 1
    assert root_of_unity(6, 12) == -1
    assert root_of_unity(1, 3) + root_of_unity(2, 3) == -1


def _exact(x):
    return x.order, x.num, x.den


@functools.cache
def _descent():
    """Each zeta_n^k, n <= 240, by the descent from order n, keyed by (k mod n, n)."""
    return {(k, n): _exact(root_by_descent(k, n)) for n in range(1, 241) for k in range(n)}


def _roots():
    """root_of_unity(k, n) for every -n <= k < n <= 240, keyed like `_descent`."""
    cyclo._root_of_unity.cache_clear()
    built = {}
    for n in range(1, 241):
        for k in range(-n, n):
            x = built.setdefault((k % n, n), _exact(root_of_unity(k, n)))
            assert _exact(root_of_unity(k, n)) == x, (k, n)
    cyclo._root_of_unity.cache_clear()
    return built


def test_root_of_unity_equals_the_descent_from_its_order():
    assert _roots() == _descent()


def test_root_of_unity_never_runs_the_descent():
    def descend(self):
        raise AssertionError("root_of_unity called reduced()")

    expected = _descent()
    with mock.patch.object(CyclotomicNumber, "reduced", descend):
        built = _roots()
    assert built == expected


def test_inverse_of_a_monomial():
    # c zeta_n^j / den has one power-basis term for j < phi(n); its inverse
    # is a root at its conductor, scaled by den / c.
    rng = random.Random(5)
    for n in range(1, 121):
        for j in range(euler_phi(n)):
            c, den = rng.choice((1, -1, 3, -6)), rng.choice((1, 2, 35))
            x = CyclotomicNumber._from_dense(n, [0] * j + [Fraction(c, den)])
            assert x * x.inverse() == 1, (n, j, c, den)


def test_conjugate_of_i():
    assert root_of_unity(1, 4).conjugate() == root_of_unity(3, 4)


def test_product_one_minus_primitive_cube_roots():
    # (1 - z3)(1 - z3^2) expands to 3 after reduction mod Phi_3.
    z = root_of_unity(1, 3)
    z2 = root_of_unity(2, 3)
    assert (1 - z) * (1 - z2) == 3


def test_norm_like_product_at_order_eight():
    z = root_of_unity(1, 8)
    x = 1 + z
    assert x * x.conjugate() == 2 + z + root_of_unity(-1, 8)


def test_inverse_examples():
    z4 = root_of_unity(1, 4)
    assert z4.inverse() == root_of_unity(3, 4)
    two = CyclotomicNumber.from_rational(2)
    assert two.inverse() == Fraction(1, 2)
    z3 = root_of_unity(1, 3)
    inv = (1 - z3).inverse()
    assert inv == (1 - root_of_unity(2, 3)) * Fraction(1, 3)
    assert (1 - z3) * inv == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero().inverse()


def test_as_rational():
    total = sum((root_of_unity(k, 5) for k in range(1, 5)), CyclotomicNumber.one())
    assert total.as_rational() == 0
    assert (root_of_unity(1, 5) * root_of_unity(4, 5)).as_rational() == 1
    with pytest.raises(NotRationalError) as info:
        root_of_unity(1, 8).as_rational()
    assert info.value.value == root_of_unity(1, 8)  # error carries the culprit


def test_power_and_root_sum_identities_sampled():
    for n in (2, 3, 8, 12, 45, 137, 240):
        z = root_of_unity(1, n)
        acc = CyclotomicNumber.one()
        total = CyclotomicNumber.zero()
        for _ in range(n):
            total = total + acc
            acc = acc * z
        assert acc == 1, f"zeta_{n}^{n} != 1"
        if n > 1:
            assert total.is_zero(), f"root sum at order {n} is nonzero"


def test_power_matches_repeated_multiplication():
    x = 1 + root_of_unity(1, 5) * Fraction(2, 3)
    expected = CyclotomicNumber.one()  # x^k
    for k in range(9):
        assert x**k == power(x, k, CyclotomicNumber.one()) == expected
        assert x**-k == expected.inverse()
        expected = expected * x


def test_mixed_order_arithmetic_embeds_into_lcm():
    a = root_of_unity(1, 4)
    b = root_of_unity(1, 3)
    prod = a * b
    assert prod == root_of_unity(7, 12)
    assert (prod ** 12) == 1


def test_embedding_round_trip():
    x = 1 + root_of_unity(1, 5) * 2
    y = x.embed(40)
    assert y == x
    assert y.reduced().order == 5


def test_equality_and_hash_are_order_independent():
    a = root_of_unity(2, 6)   # equals zeta_3
    b = root_of_unity(1, 3)
    assert a == b
    assert hash(a) == hash(b)
    assert root_of_unity(3, 6) == -1


@pytest.mark.parametrize(
    "value, plain",
    [
        (CyclotomicNumber.from_rational(2), 2),
        (CyclotomicNumber.from_rational(Fraction(1, 2)), Fraction(1, 2)),
        (root_of_unity(0, 7), 1),
        (root_of_unity(3, 6), -1),
        (root_of_unity(1, 3) + root_of_unity(2, 3), -1),
        (CyclotomicNumber(4, [Fraction(3, 4), 0]), Fraction(3, 4)),
    ],
)
def test_rational_values_hash_as_their_int_or_fraction(value, plain):
    assert value == plain
    assert hash(value) == hash(plain)
    assert len({value, plain}) == 1


def test_reflected_operators_reject_a_non_number():
    z = root_of_unity(1, 5)
    with pytest.raises(TypeError):
        1.5 - z
    with pytest.raises(TypeError):
        1.5 / z


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in (5, 7, 9, 16, 105):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_of_the_divisors_multiply_to_x_n_minus_1():
    for n in range(1, 601):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _convolve(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (n - 1) + [1], n


@pytest.mark.parametrize("n", [18182, 30030, 100001])
def test_cyclotomic_polynomials_of_the_divisors_multiply_to_2_n_minus_1(n):
    # The same identity at x = 2, modulo the prime 2^61 - 1, at orders whose
    # expanded products would be too long to compare.
    P = 2**61 - 1
    product = 1
    for d in (d for d in range(1, n + 1) if n % d == 0):
        value = 0
        for c in reversed(cyclotomic_polynomial(d)):
            value = (2 * value + c) % P
        product = product * value % P
    assert product == (pow(2, n, P) - 1) % P


def _random_value(rng, n):
    deg = euler_phi(n)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
    return CyclotomicNumber(n, coeffs)


def test_randomized_inverse_round_trip():
    rng = random.Random(12345)
    done = 0
    while done < 1000:
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24])
        x = _random_value(rng, n)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
        done += 1


def test_randomized_float_embedding_agreement():
    # Sanity cross-check only: canonical equality must agree with the
    # floating-point embedding to 1e-9 on random expressions.
    rng = random.Random(999)
    for _ in range(1000):
        n = rng.choice([3, 4, 5, 8, 12, 20])
        x = _random_value(rng, n)
        y = _random_value(rng, n)
        s = x * y + x - y
        approx = to_complex(x) * to_complex(y) + to_complex(x) - to_complex(y)
        assert abs(to_complex(s) - approx) < 1e-9


def test_field_axioms_randomized():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.choice([4, 6, 8, 12])
        a, b, c = (_random_value(rng, n) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c


def test_galois_conjugation_is_field_automorphism():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([5, 8, 12])
        a, b = _random_value(rng, n), _random_value(rng, n)
        t = rng.choice([t for t in range(1, n) if math.gcd(t, n) == 1])
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        assert (a + b).galois(t) == a.galois(t) + b.galois(t)


def test_trace_is_the_sum_of_the_galois_conjugates():
    rng = random.Random(11)
    for n in range(1, 121):
        x = _random_value(rng, n)
        conjugates = [x.galois(t) for t in range(1, n + 1) if math.gcd(t, n) == 1]
        assert len(conjugates) == euler_phi(n)
        total = sum(conjugates, CyclotomicNumber.zero())
        assert x.trace() == total.as_rational()
        assert CyclotomicNumber.one().embed(n).trace() == euler_phi(n)


def test_trace_row_equals_kluyvers_formula():
    # von Sterneck's closed form against the divisor sum, at every order to 1000.
    for n in range(1, 1001):
        assert cyclo._trace_row(n) == kluyver_trace_row(n), n
