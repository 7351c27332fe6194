"""Sparse exact arithmetic on Q-linear combinations of N-th roots of unity.

Values are dicts {exponent mod N: Fraction}.  The representation is not
canonical (relations among roots are not reduced), which keeps products
of the inverse expansions cheap; canonical questions are answered by
Galois invariance plus Ramanujan-sum traces, or by converting to a
canonical `CyclotomicNumber`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclo import CyclotomicNumber, euler_phi, factorize, mobius
from .errors import InternalInvariantError


def ramanujan_sum(n: int, e: int) -> int:
    """Sum of zeta_n^(e*t) over t coprime to n."""
    g = math.gcd(e % n if n > 1 else 0, n)
    k = n // g if g else 1
    mu = mobius(k)
    if mu == 0:
        return 0
    return mu * (euler_phi(n) // euler_phi(k))


def _unit_group_generators(n: int):
    """A generating set for (Z/n)^*, via primitive roots per prime power."""
    if n <= 2:
        return []
    gens = []
    for p, e in factorize(n).items():
        q = p**e
        rest = n // q
        if p == 2:
            locals_ = [3, q - 1] if e >= 3 else ([3] if e == 2 else [])
        else:
            g = _primitive_root(p, q)
            locals_ = [g]
        for g in locals_:
            # CRT-lift: g mod q, 1 mod rest.
            if rest == 1:
                gens.append(g % n)
            else:
                inv = pow(q, -1, rest)
                t = (g + q * ((1 - g) * inv % rest)) % n
                gens.append(t)
    return [g for g in gens if g % n != 1]


def _primitive_root(p: int, q: int) -> int:
    phi_p = p - 1
    fs = list(factorize(phi_p))
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // f, p) != 1 for f in fs):
            g = cand
            break
    if g is None:
        raise InternalInvariantError(f"no primitive root modulo {p}")
    if q == p:
        return g
    # Lift to p^e: g works unless g^(p-1) = 1 mod p^2.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class RootSum:
    """Mutable sparse sum of rational multiples of zeta_n powers."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c=None):
        self.n = n
        self.c = dict(c) if c else {}

    @staticmethod
    def monomial(n: int, e: int, coef=1) -> "RootSum":
        coef = Fraction(coef)
        if coef == 0:
            return RootSum(n)
        return RootSum(n, {e % n: coef})

    @staticmethod
    def inv_one_minus(n: int, e: int) -> "RootSum":
        """1/(1 - zeta_n^e) as -(1/d) * sum_{j=1}^{d-1} j zeta^(ej), d = ord(zeta^e)."""
        e %= n
        if e == 0:
            raise ZeroDivisionError("1 - zeta^0 is zero")
        d = n // math.gcd(e, n)
        out = {}
        for j in range(1, d):
            out[(e * j) % n] = Fraction(-j, d)
        return RootSum(n, out)

    def add_scaled(self, other: "RootSum", exp_shift: int = 0, coef=1) -> "RootSum":
        """In-place self += coef * zeta^exp_shift * other."""
        if other.n != self.n:
            raise ValueError("mixed root orders in RootSum arithmetic")
        coef = Fraction(coef)
        if coef == 0:
            return self
        n = self.n
        c = self.c
        for e, v in other.c.items():
            k = (e + exp_shift) % n
            nv = c.get(k, _F0) + coef * v
            if nv:
                c[k] = nv
            else:
                c.pop(k, None)
        return self

    def mul(self, other: "RootSum") -> "RootSum":
        if other.n != self.n:
            raise ValueError("mixed root orders in RootSum arithmetic")
        out = RootSum(self.n)
        for e, v in other.c.items():
            out.add_scaled(self, e, v)
        return out

    def galois_permuted(self, t: int) -> "RootSum":
        n = self.n
        return RootSum(n, {(e * t) % n: v for e, v in self.c.items()})

    def is_galois_stable(self) -> bool:
        """True if the stored dict is literally invariant under Gal(Q(zeta_n)/Q).

        Sufficient for rationality of the value; the engine produces sums that
        are term-for-term symmetric when the underlying element set is closed
        under g -> g^t, so this is also complete for its call sites.
        """
        for t in _unit_group_generators(self.n):
            if self.galois_permuted(t).c != self.c:
                return False
        return True

    def rational_value(self) -> Fraction:
        """The value as an exact rational; requires Galois-stable storage."""
        if not self.c:
            return Fraction(0)
        if not self.is_galois_stable():
            raise InternalInvariantError(
                "root sum is not Galois stable; cannot certify rationality"
            )
        n = self.n
        total = sum((v * ramanujan_sum(n, e) for e, v in self.c.items()), Fraction(0))
        return total / euler_phi(n)

    def to_cyclotomic(self) -> CyclotomicNumber:
        dense = [0] * self.n
        for e, v in self.c.items():
            dense[e] = v
        return CyclotomicNumber._from_dense(self.n, dense)

    def __repr__(self):
        return f"RootSum(n={self.n}, terms={len(self.c)})"


_F0 = Fraction(0)
