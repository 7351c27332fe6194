"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value of order N is stored as integer numerators over one common
denominator, as FLINT/Antic store number-field elements:

    (num[0] + num[1] zeta_N + ... + num[phi(N)-1] zeta_N^(phi(N)-1)) / den,

the residue modulo the N-th cyclotomic polynomial Phi_N.  Two invariants
make the pair (num, den) canonical at a given order: den > 0, and
gcd(num[0], ..., num[-1], den) == 1 (zero is all-zero numerators over 1).
Two values of the same order are therefore equal iff their (num, den) are
equal; cross-order operations embed both sides into the lcm order first.

All arithmetic is on Python ints.  A product is an integer convolution
reduced modulo the monic integer polynomial Phi_N; a sum cross-multiplies
the denominators, except that a rational term (an int, a Fraction or an
order-1 value) of `+` or `-` moves only the constant coordinate, with no
embedding into a common order; `inverse` runs a fraction-free remainder
sequence against Phi_N; `trace` sums the Galois conjugates through the
Ramanujan sums of `ramanujan_sum`, which `rootsum` reads too.  `reduced()`
rewrites a value at its conductor (the least order whose field contains it,
never 2 mod 4), where `root_of_unity` writes roots directly; hashing uses
that form, so equal values hash equally whatever their order, and a rational
value as its Fraction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import DomainError, InternalInvariantError, NotRationalError


# The sweep meets thousands of distinct orders once each; a bounded cache keeps
# its hits (about 80%) without holding every factorization for the process.
@lru_cache(maxsize=256)
def factorize(n: int):
    """Prime factorization by trial division, as a read-only {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return MappingProxyType(out)


@lru_cache(maxsize=256)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def ramanujan_sum(n: int, e: int) -> int:
    """Sum of zeta_n^(e*t) over t coprime to n: mu(k) phi(n) / phi(k), k = n / gcd(e, n)."""
    k = n // math.gcd(e, n)
    mu = mobius(k)
    if mu == 0:
        return 0
    return mu * (euler_phi(n) // euler_phi(k))


def frac_str(x) -> str:
    """An exact rational (a Fraction or an int) as the string "p/q"."""
    return f"{x.numerator}/{x.denominator}"


def power(base, k: int, one):
    """base**k for k >= 0 by square-and-multiply, with `one` as base**0."""
    if k < 0:  # k >>= 1 would never reach 0
        raise ValueError(f"power expects k >= 0, not {k}")
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# integer polynomials: coefficient lists, constant term first


def _poly_mul(a, b):
    bnz = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in bnz:
                out[i + j] += x * y
    return out


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_modinv(a, mod):
    """(s, c) with s*a == c modulo `mod`, c a nonzero integer.

    A primitive remainder sequence on pairs (r, s) with s*a == r (mod `mod`).
    While deg r0 >= deg r1, the leading term t x^(k + deg r1) of r0 is
    cancelled, one term at a time: r0 <- (|l|/g) r0 - (sign(l) t/g) x^k r1,
    with l = lc(r1) and g = gcd(t, l), and s0 likewise with s1.  Then
    (r0, s0) is divided by its content and the pairs swap, so no rational
    number is ever formed.
    """
    r0, s0 = list(mod), [0]
    r1, s1 = _poly_trim(list(a)), [1]
    while len(r1) > 1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            k = len(r0) - len(r1)
            t = r0[-1]
            g = math.gcd(t, lead)
            scale = abs(lead) // g  # > 0, so lc(r1) == -1 needs no scaling
            if scale != 1:
                r0 = [x * scale for x in r0]
                s0 = [x * scale for x in s0]
            t = t // g if lead > 0 else -t // g
            # Phi_N and the per-element denominators are mostly sparse.
            for j, c in enumerate(r1, k):
                if c:
                    r0[j] -= t * c
            s0 += [0] * (k + len(s1) - len(s0))
            for j, c in enumerate(s1, k):
                if c:
                    s0[j] -= t * c
            _poly_trim(r0)
        g = math.gcd(*r0, *s0)
        if g > 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, s0, r1, s1 = r1, s1, r0, _poly_trim(s0)
    if not r1:
        raise ZeroDivisionError("element is not invertible modulo Phi_N")
    return s1, r1[0]


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction modulo Phi_n


def _squarefree_cofactors(n: int):
    """(d, mu(n/d)) for each d | n with n/d squarefree."""
    signed = [(n, 1)]
    for p in factorize(n):
        signed += [(d // p, -s) for d, s in signed]
    return signed


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n, constant term first: the product over d | n of
    (x^d - 1)^mu(n/d).  Each binomial is multiplied in (mu = 1) or divided
    out (mu = -1, after every product) in one linear pass."""
    if n <= 0:
        raise ValueError("cyclotomic_polynomial expects a positive integer")
    poly = [1]
    for d, s in sorted(_squarefree_cofactors(n), key=lambda ds: -ds[1]):
        if s == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
            continue
        for i in range(len(poly) - d - 1, -1, -1):  # the quotient is poly[d:]
            poly[i] += poly[i + d]
        if any(poly[:d]):
            raise InternalInvariantError(
                f"x^{d} - 1 leaves a remainder in Phi_{n}", witness={"n": n, "d": d}
            )
        poly = poly[d:]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int):
    """Nonzero (index, coefficient) pairs of Phi_n below its leading term."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)


@lru_cache(maxsize=256)
def _trace_row(n: int):
    """Tr(zeta_n^i) over Q for i < phi(n): the Ramanujan sum c_n(i)."""
    return tuple(ramanujan_sum(n, i) for i in range(euler_phi(n)))


def _reduce(n: int, dense: list) -> list:
    """`dense` (integer coefficients, any length) reduced modulo Phi_n, in place."""
    deg = euler_phi(n)
    if len(dense) > deg:
        tail = _phi_tail(n)
        for i in range(len(dense) - 1, deg - 1, -1):
            c = dense[i]
            if c:
                base = i - deg
                for j, pj in tail:
                    dense[base + j] -= c * pj
        del dense[deg:]
    elif len(dense) < deg:
        dense.extend([0] * (deg - len(dense)))
    return dense


# ---------------------------------------------------------------------------
# the field element


class CyclotomicNumber:
    """An exact element of Q(zeta_order); immutable.

    `num` is a tuple of phi(order) ints and `den` a positive int, with no
    common factor shared by all of them (see the module docstring).
    """

    __slots__ = ("order", "num", "den")

    def __new__(cls, order: int, coeffs):
        """From phi(order) ints or Fractions, the power-basis coordinates."""
        num, den = _over_common_denominator(coeffs)
        if len(num) != euler_phi(order):
            raise ValueError(f"need {euler_phi(order)} coefficients for order {order}")
        return _make(order, num, den)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        return _raw, (self.order, self.num, self.den)

    # -- construction ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "CyclotomicNumber":
        return _ZERO_CYC

    @staticmethod
    def one() -> "CyclotomicNumber":
        return _ONE_CYC

    @staticmethod
    def _from_dense(order: int, dense) -> "CyclotomicNumber":
        """Reduce an arbitrary-length list of ints or Fractions modulo Phi_order."""
        num, den = _over_common_denominator(dense)
        return _make(order, _reduce(order, num), den)

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- order handling ----------------------------------------------

    def embed(self, order: int) -> "CyclotomicNumber":
        """Re-express at a larger order (self.order must divide order)."""
        n = self.order
        if order == n:
            return self
        if order % n:
            raise ValueError("can only embed into a multiple of the order")
        step = order // n
        dense = [0] * ((len(self.num) - 1) * step + 1)
        dense[::step] = self.num
        # Z[zeta_n] is the ring of integers of its field, so the embedding
        # keeps the numerators' content and the pair stays normalized.
        return _raw(order, _reduce(order, dense), self.den)

    @staticmethod
    def _common(a: "CyclotomicNumber", b: "CyclotomicNumber"):
        if a.order == b.order:
            return a, b
        m = math.lcm(a.order, b.order)
        return a.embed(m), b.embed(m)

    def galois(self, t: int) -> "CyclotomicNumber":
        """The image under zeta |-> zeta^t (t coprime to the order)."""
        n = self.order
        if math.gcd(t, n) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        dense = [0] * n
        for j, c in enumerate(self.num):
            if c:
                dense[(j * t) % n] = c
        # An automorphism of Z[zeta_n] keeps the numerators' content.
        return _raw(n, _reduce(n, dense), self.den)

    def trace(self) -> Fraction:
        """The trace from Q(zeta_order) to Q: the sum of the phi(order)
        images galois(t), read off the coordinates as sum num_i c_N(i) / den."""
        return Fraction(sum(map(operator.mul, self.num, _trace_row(self.order))), self.den)

    def reduced(self) -> "CyclotomicNumber":
        """Rewrite at the conductor: the least order whose field contains self."""
        x = self
        # A prime that fails to descend at some order fails at every divisor
        # of it, so one pass over the primes, each repeated, suffices.
        for p in factorize(self.order):
            while x.order % p == 0:
                y = x._descend(p)
                if y is None:
                    break
                x = y
        return x

    def _descend(self, p: int):
        """Return self re-expressed at order n/p (p a prime dividing n), or None."""
        n = self.order
        d = n // p
        num = self.num
        if d % p == 0:
            # Phi_n(x) = Phi_d(x^p): the subfield is spanned by the basis
            # powers that are multiples of p.
            if any(c for i, c in enumerate(num) if i % p):
                return None
            return _raw(d, num[::p], self.den)
        # p exactly divides n.  zeta_n = zeta_d^u zeta_p^v with u p + v d = 1,
        # and the relative trace to Q(zeta_d) maps zeta_d^A zeta_p^B to
        # zeta_d^A (p - 1 if p | B else -1).  A member of Q(zeta_d) is its
        # trace divided by p - 1; anything else fails the check below.
        u = pow(p, -1, d)
        v = (1 - u * p) // d
        dense = [0] * d
        for j, c in enumerate(num):
            if c:
                dense[(u * j) % d] += c * (p - 1) if (v * j) % p == 0 else -c
        y = _make(d, _reduce(d, dense), self.den * (p - 1))
        if p != 2:  # Q(zeta_2d) = Q(zeta_d) for odd d: nothing to check
            back = y.embed(n)
            if back.num != num or back.den != self.den:
                return None
        return y

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        num = self.num
        return self.den == 1 and num[0] == 1 and not any(num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise NotRationalError(self)
        return Fraction(self.num[0], self.den)

    def multiplicative_order(self):
        """Order as a root of unity, or None if not one."""
        x = self.reduced()
        L = math.lcm(x.order, 2)
        j = _root_table(L).get(x.embed(L).num) if x.den == 1 else None
        return None if j is None else L // math.gcd(j, L)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not CyclotomicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.order == 1:
            return _shift(self, other.num[0], other.den)
        if self.order == 1:
            return _shift(other, self.num[0], self.den)
        a, b = CyclotomicNumber._common(self, other)
        if a.den == b.den:
            return _make(a.order, [x + y for x, y in zip(a.num, b.num)], a.den)
        da, db = a.den, b.den
        return _make(a.order, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        if type(other) is not CyclotomicNumber:
            if type(other) is int:
                return _shift(self, -other, 1)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not CyclotomicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.order == 1 or self.order == 1:
            # A rational factor scales the numerators.
            x, q = (self, other) if other.order == 1 else (other, self)
            c = q.num[0]
            return _make(x.order, [v * c for v in x.num], x.den * q.den)
        a, b = CyclotomicNumber._common(self, other)
        n = a.order
        return _make(n, _reduce(n, _poly_mul(a.num, b.num)), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse, by a fraction-free remainder sequence mod Phi_N."""
        num = self.num
        if not any(num):
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.order
        terms = [(j, c) for j, c in enumerate(num) if c]
        if len(terms) == 1:
            # (c zeta^j / den)^-1 = (den / c) zeta^-j, at the root's conductor
            j, c = terms[0]
            return _root_of_unity(-j % n, n) * _make(1, (self.den,), c)
        s, c = _poly_modinv(num, cyclotomic_polynomial(n))
        den = self.den
        return _make(n, _reduce(n, [den * x for x in s]), c)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), _ONE_CYC)

    def conjugate(self) -> "CyclotomicNumber":
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other):
        if type(other) is not CyclotomicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = CyclotomicNumber._common(self, other)
        return a.den == b.den and a.num == b.num

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        r = self.reduced()
        # A rational value equals its int or Fraction, so it hashes as one.
        return hash(Fraction(r.num[0], r.den)) if r.order == 1 else hash((r.order, r.num, r.den))

    # -- conversions -----------------------------------------------------

    def __repr__(self):
        coeffs = self.coeffs
        if self.order == 1:
            return f"Cyc({coeffs[0]})"
        terms = []
        for j, c in enumerate(coeffs):
            if c:
                terms.append(f"{c}*z{self.order}^{j}" if j else f"{c}")
        return "Cyc(" + (" + ".join(terms) or "0") + ")"


_set = object.__setattr__


def _over_common_denominator(coeffs):
    """(integer numerators, den) for ints or Fractions over their least common denominator."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _make(order, num, den) -> CyclotomicNumber:
    """A value from phi(order) integer numerators over a nonzero int den."""
    if den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(order, num, den)


def _raw(order, num, den) -> CyclotomicNumber:
    """Like _make, for numerators and den > 0 already without a common factor."""
    self = object.__new__(CyclotomicNumber)
    _set(self, "order", order)
    _set(self, "num", tuple(num))
    _set(self, "den", den)
    return self


def _shift(x, p: int, q: int) -> CyclotomicNumber:
    """x + p/q (q > 0, p/q in lowest terms): only the constant coordinate moves."""
    num, den = x.num, x.den
    if q == 1:
        # gcd(num[0] + p den, num[1:], den) == gcd(num, den) == 1
        return _raw(x.order, (num[0] + p * den, *num[1:]), den)
    return _make(x.order, [num[0] * q + p * den, *(c * q for c in num[1:])], den * q)


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if type(x) is int:
        return _raw(1, (x,), 1)
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    return NotImplemented


_ZERO_CYC = _raw(1, (0,), 1)
_ONE_CYC = _raw(1, (1,), 1)


# ---------------------------------------------------------------------------
# roots of unity


def root_of_unity(k: int, n: int) -> CyclotomicNumber:
    """zeta_n^k, written directly at its conductor."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return _root_of_unity(k % n, n)


# A root holds up to phi(n) ints, and a long run meets tens of thousands of
# distinct roots; one group's matrices reuse a few hundred.
@lru_cache(maxsize=1024)
def _root_of_unity(k: int, n: int) -> CyclotomicNumber:
    g = math.gcd(k, n)  # zeta_n^k = zeta_d^e with gcd(e, d) = 1, at conductor d
    e, d, sign = k // g, n // g, 1
    if d % 4 == 2:  # or at c = d/2: zeta_2c^e = -zeta_c^(e(c + 1)/2), c and e odd
        e, d, sign = e * (d + 2) // 4 % (d // 2), d // 2, -1
    return _raw(d, _reduce(d, [0] * e + [sign]), 1)


# Keyed by order; a table holds up to n * phi(n) ints, so only a few dozen are kept.
@lru_cache(maxsize=32)
def _root_table(n: int) -> dict:
    """Numerators at order n (n even) of zeta_n^i -> i, in exponent order.
    Every root of unity in Q(zeta_n) is one of these."""
    table = {}
    row = _reduce(n, [1])
    for i in range(n):
        table[tuple(row)] = i
        # zeta * zeta^i: shift by one place, then one reduction step.
        row = _reduce(n, [0, *row])
    return table


def root_pair(s: CyclotomicNumber, p: CyclotomicNumber):
    """The roots of unity with sum s and product p, as exponents.

    Returns (d, a, b) with a <= b, zeta_d^a + zeta_d^b == s and
    zeta_d^(a+b) == p, where d is the least common order of the two roots:
    these are the roots of x^2 - s x + p, so for a matrix of finite order
    they are its eigenvalues and d is its order.  Raises DomainError when
    x^2 - s x + p has a root that is not a root of unity.
    """
    s, p = s.reduced(), p.reduced()
    # Both roots lie in a field of degree <= 2 over Q(zeta_c).  A cyclotomic
    # field Q(zeta_M) (M a multiple of c) has degree phi(M)/phi(c) <= 2 over
    # it only for M in {c, 2c, 3c with 3 not dividing c}, c even.
    c = math.lcm(s.order, p.order, 2)
    L = 2 * c if c % 3 == 0 else 6 * c
    t, q = s.embed(L), p.embed(L)
    table = _root_table(L) if t.den == 1 and q.den == 1 else {}
    e = table.get(q.num)  # p == zeta_L^e
    if e is not None:
        # The table lists a = 0, 1, ... in order, and the first a with
        # s - zeta_L^a = zeta_L^b and a + b = e is the smaller root.
        target = t.num
        for row, a in table.items():
            b = table.get(tuple(x - y for x, y in zip(target, row)))
            if b is not None and (a + b - e) % L == 0:
                g = math.gcd(a, b, L)
                return L // g, a // g, b // g
    raise DomainError("x^2 - s x + p has a root that is not a root of unity")
