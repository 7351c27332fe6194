"""Sparse exact arithmetic on Q-linear combinations of N-th roots of unity.

Values are integer numerators `{exponent mod N: int}` over one positive
denominator `den`, the representation `CyclotomicNumber` uses; no stored
numerator is 0.  The representation is not canonical (relations among
roots are not reduced, and `den` need not be in lowest terms), which keeps
products of the inverse expansions cheap; canonical questions are answered
by Galois invariance plus traces through `cyclo.ramanujan_sum`, or by
converting to a canonical `CyclotomicNumber`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclo import CyclotomicNumber, euler_phi, ramanujan_sum
from .errors import InternalInvariantError


class RootSum:
    """Mutable sparse sum of rational multiples of zeta_n powers, stored as
    integer numerators `c` over the positive integer `den`."""

    __slots__ = ("n", "c", "den")

    def __init__(self, n: int, c=None):
        """From {exponent: int or Fraction}; zero values are dropped."""
        self.n = n
        self.c = {}
        self.den = 1
        if c:
            values = {e: Fraction(v) for e, v in c.items() if v}
            den = self.den = math.lcm(*(v.denominator for v in values.values()))
            self.c = {e: v.numerator * (den // v.denominator) for e, v in values.items()}

    @staticmethod
    def monomial(n: int, e: int, coef=1) -> "RootSum":
        return RootSum(n, {e % n: coef})

    @staticmethod
    def inv_one_minus(n: int, e: int) -> "RootSum":
        """1/(1 - zeta_n^e) as -(1/d) * sum_{j=1}^{d-1} j zeta^(ej), d = ord(zeta^e)."""
        e %= n
        if e == 0:
            raise ZeroDivisionError("1 - zeta^0 is zero")
        d = n // math.gcd(e, n)
        return _raw(n, {(e * j) % n: -j for j in range(1, d)}, d)

    def add_scaled(self, other: "RootSum", exp_shift: int = 0, coef=1) -> "RootSum":
        """In-place self += coef * zeta^exp_shift * other."""
        if other.n != self.n:
            raise ValueError("mixed root orders in RootSum arithmetic")
        if type(coef) is int:
            p, oden = coef, other.den
        else:
            coef = Fraction(coef)
            p, oden = coef.numerator, coef.denominator * other.den
        if not p or not other.c:
            return self
        c = self.c
        if not c:
            self.den = oden
        elif oden != self.den:
            den = math.lcm(self.den, oden)
            if den != self.den:
                f = den // self.den
                for e in c:
                    c[e] *= f
                self.den = den
            p *= den // oden
        n = self.n
        for e, v in other.c.items():
            k = (e + exp_shift) % n
            nv = c.get(k, 0) + p * v
            if nv:
                c[k] = nv
            else:
                del c[k]
        return self

    def mul(self, other: "RootSum") -> "RootSum":
        if other.n != self.n:
            raise ValueError("mixed root orders in RootSum arithmetic")
        n = self.n
        c = {}
        for e2, v2 in other.c.items():
            for e1, v1 in self.c.items():
                k = (e1 + e2) % n
                c[k] = c.get(k, 0) + v1 * v2
        return _raw(n, {e: v for e, v in c.items() if v}, self.den * other.den)

    def galois_permuted(self, t: int) -> "RootSum":
        n = self.n
        return _raw(n, {(e * t) % n: v for e, v in self.c.items()}, self.den)

    def is_galois_stable(self) -> bool:
        """True if the stored dict is literally invariant under Gal(Q(zeta_n)/Q).

        Sufficient for rationality of the value; the engine produces sums that
        are term-for-term symmetric when the underlying element set is closed
        under g -> g^t, so this is also complete for its call sites.  The
        orbit of an exponent e is every f with gcd(f, n) = gcd(e, n), which
        is phi(n / gcd(e, n)) exponents; so the dict is stable iff each gcd
        class it touches is fully present with a single numerator (all of
        them share `den`).
        """
        n = self.n
        classes = {}  # gcd -> [numerator, exponents seen]
        for e, v in self.c.items():
            seen = classes.setdefault(math.gcd(e, n), [v, 0])
            if seen[0] != v:
                return False
            seen[1] += 1
        return all(count == euler_phi(n // g) for g, (_, count) in classes.items())

    def rational_value(self) -> Fraction:
        """The value as an exact rational; requires Galois-stable storage.

        A rational value is its own trace over phi(n), and the trace of
        zeta_n^e is the Ramanujan sum c_n(e)."""
        if not self.c:
            return Fraction(0)
        if not self.is_galois_stable():
            raise InternalInvariantError(
                "root sum is not Galois stable; cannot certify rationality",
                witness={"n": self.n, "den": self.den, "terms": len(self.c)},
            )
        n = self.n
        trace = sum(v * ramanujan_sum(n, e) for e, v in self.c.items())
        return Fraction(trace, self.den * euler_phi(n))

    def to_cyclotomic(self) -> CyclotomicNumber:
        dense = [0] * self.n
        for e, v in self.c.items():
            dense[e] = Fraction(v, self.den)
        return CyclotomicNumber._from_dense(self.n, dense)

    def __repr__(self):
        return f"RootSum(n={self.n}, terms={len(self.c)}, den={self.den})"


def _raw(n: int, c: dict, den: int) -> RootSum:
    """Like RootSum(n, c), for integer numerators, none 0, over den > 0."""
    self = object.__new__(RootSum)
    self.n, self.c, self.den = n, c, den
    return self
