"""Finite subgroups of U(2) acting freely on the 3-sphere.

Covers the six non-abelian families built from a scalar cyclic group and
a binary polyhedral group, tagged DD, DC, TT, TD, OO, II.  Every group
has one key domain, the dense integers `range(|G|)` with identity 0, in
blocks `b * K + range(K)` of its scalars, and gives the exact 2x2
cyclotomic matrix of each key.  The family groups number their elements
through a structured scalar*atom model (see _model) whose multiplication
agrees with matrix multiplication by construction; the binary
tetrahedral, octahedral and icosahedral groups are closed with -I in
sign pairs, key 2r + 1 minus key 2r, and multiply through a Cayley table
of the pairs.  The binary dihedral group D*_4n is family DD with m = 1.
One block walker, `_walk_blocks`, closes G and [G,G], marks the
commutators' conjugates, checks that [G,G] is normal, and counts the
classes, or lists them on blocks of one key.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CyclotomicNumber, power, root_of_unity, root_pair
from .errors import ConstraintError, DomainError, InternalInvariantError

FAMILIES = ("DD", "DC", "TT", "TD", "OO", "II")

# The binary polyhedral group of each polyhedral family, and per group
# (order, k), with (2, 3, k) the triangle x^2 = (xy)^3 = y^k = -1.
BINARY_KIND = {"TT": "T", "TD": "T", "OO": "O", "II": "I"}
BINARY = {"T": (24, 3), "O": (48, 4), "I": (120, 5)}

# build_group's bounds, so that a spec too large to close is refused before
# anything is allocated.  Memory grows with |G|, the bits over all block
# masks; time also with |G| / K, the masks the walk visits one by one.
# On a 2-core x86-64 host, `group` took 1.45 GB and 25 s on DD(2^29 + 1, 2),
# 2^32 + 8 keys in 4 blocks, and 210 MB and 43 s on DD(1, 2^21), 2^22
# blocks of 2 keys.
KEY_BOUND, BLOCK_BOUND = 1 << 32, 1 << 22


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """One of the six families plus its parameters.  Slotted: a sweep holds
    one per spec, 56 bytes each instead of 152 with a `__dict__` (CPython
    3.11)."""

    family: str
    m: int
    n: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> "GroupSpec":
        f, m, n = self.family, self.m, self.n
        if f not in FAMILIES:
            raise ConstraintError(f"unknown family {f!r}; expected one of {FAMILIES}")
        if type(m) is not int or type(n) is not int:
            raise ConstraintError(f"m and n must be integers, not {m!r} and {n!r}")
        if m < 1:
            raise ConstraintError("m must be a positive integer")
        if f not in BINARY_KIND:
            if n < 2:
                raise ConstraintError(f"family {f} requires n >= 2")
            if math.gcd(m, n) != 1:
                raise ConstraintError(f"family {f} requires gcd(m, n) = 1")
            if f == "DD" and m % 2 == 0:
                raise ConstraintError("family DD requires m odd")
            if f == "DC" and m % 2 == 1:
                raise ConstraintError("family DC requires m even")
        else:
            if n:
                raise ConstraintError(f"family {f} takes no n parameter")
            if f in ("TT", "OO") and math.gcd(m, 6) != 1:
                raise ConstraintError(f"family {f} requires gcd(m, 6) = 1")
            if f == "TD" and (m % 2 == 0 or m % 3 != 0):
                raise ConstraintError("family TD requires m odd and divisible by 3")
            if f == "II" and math.gcd(m, 30) != 1:
                raise ConstraintError("family II requires gcd(m, 30) = 1")
        return self

    @property
    def order(self) -> int:
        """|G|, equal to |N1| * |H2| / 2 for the defining pair construction."""
        if self.family in BINARY_KIND:
            return BINARY[BINARY_KIND[self.family]][0] * self.m
        return 4 * self.m * self.n

    @property
    def scalar_order(self) -> int:
        return 2 * self.m

    @property
    def gamma_order(self) -> int:
        """Order of G modulo its scalar subgroup."""
        return self.order // self.scalar_order

    def to_dict(self) -> dict:
        d = {"family": self.family, "m": self.m}
        if self.family not in BINARY_KIND:
            d["n"] = self.n
        return d


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d1 | d2 | ... of a finite abelian group."""

    factors: tuple

    def __post_init__(self):
        witness = {"factors": self.factors}
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise InternalInvariantError("invariant factors must form a divisor chain", witness)
        if any(d <= 1 for d in self.factors):
            raise InternalInvariantError("invariant factors must exceed 1", witness)

    @property
    def group_order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out


# ---------------------------------------------------------------------------
# matrix layer


class UnitaryElement:
    """A 2x2 unitary matrix with exact cyclotomic entries."""

    __slots__ = ("entries",)

    def __init__(self, entries, check: bool = True):
        rows = tuple(tuple(_as_cyc(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        object.__setattr__(self, "entries", rows)
        if check:
            self._check_unitary()

    def __setattr__(self, *a):
        raise AttributeError("UnitaryElement is immutable")

    def __reduce__(self):
        return UnitaryElement, (self.entries, False)

    def _check_unitary(self):
        (a, b), (c, d) = self.entries
        ac, bc, cc, dc = (x.conjugate() for x in (a, b, c, d))
        one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
        if (
            ac * a + cc * c != one
            or bc * b + dc * d != one
            or ac * b + cc * d != zero
        ):
            raise ConstraintError("matrix is not unitary")
        if self.det().multiplicative_order() is None:
            raise ConstraintError("determinant is not a root of unity")

    def __mul__(self, other: "UnitaryElement") -> "UnitaryElement":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return UnitaryElement(
            ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)),
            check=False,
        )

    def det(self) -> CyclotomicNumber:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def trace(self) -> CyclotomicNumber:
        return self.entries[0][0] + self.entries[1][1]

    def is_identity(self) -> bool:
        (a, b), (c, d) = self.entries
        return a.is_one() and d.is_one() and b.is_zero() and c.is_zero()

    def is_scalar(self) -> bool:
        (a, b), (c, d) = self.entries
        return b.is_zero() and c.is_zero() and a == d

    def matrix_order(self) -> int:
        """The least d with g^d == I: the least common order of the
        eigenvalues, confirmed by an exact power of the matrix."""
        d = eigen_exponents(self)[0]
        if not (self**d).is_identity():
            raise InternalInvariantError(
                "matrix is not of finite order", witness={"matrix": self, "eigen_order": d}
            )
        return d

    def __pow__(self, k: int) -> "UnitaryElement":
        """Non-negative power by square-and-multiply."""
        return power(self, k, UnitaryElement(((1, 0), (0, 1)), check=False))

    def __neg__(self) -> "UnitaryElement":
        return UnitaryElement(tuple(tuple(-x for x in row) for row in self.entries), check=False)

    def __eq__(self, other):
        if not isinstance(other, UnitaryElement):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"UnitaryElement({self.entries[0]!r}, {self.entries[1]!r})"


def _as_cyc(x):
    if isinstance(x, CyclotomicNumber):
        return x
    return CyclotomicNumber.from_rational(x)


def quaternion_matrix(a, b, c, d) -> UnitaryElement:
    """SU(2) matrix of the unit quaternion a + bi + cj + dk."""
    a, b, c, d = (_as_cyc(x) for x in (a, b, c, d))
    i = root_of_unity(1, 4)
    return UnitaryElement(
        ((a + b * i, c + d * i), (-c + d * i, a - b * i)), check=False
    )


def _binary_generators(kind: str):
    """(x, y) with x^2 = y^k = (xy)^3 = -1, for (order, k) = BINARY[kind]."""
    if kind == "T":
        # x = j; y = (1 + i - j + k)/2, of order 6.
        h = Fraction(1, 2)
        return quaternion_matrix(0, 0, 1, 0), quaternion_matrix(h, h, -h, h)
    if kind == "O":
        # y = (1 + i)/sqrt2 = diag(zeta_8, zeta_8^-1); x = (-i + j)/sqrt2.
        r = (root_of_unity(1, 8) - root_of_unity(3, 8)) * Fraction(1, 2)  # 1/sqrt2
        x = quaternion_matrix(0, -r, r, 0)
        y = UnitaryElement(((root_of_unity(1, 8), 0), (0, root_of_unity(-1, 8))), check=False)
        return x, y
    # I: tau = (1 + sqrt5)/2 with sqrt5 = 1 + 2(zeta_5 + zeta_5^4);
    # y = (tau + tau^-1 i + j)/2 of order 10, x = -j.
    sqrt5 = CyclotomicNumber.one() + (root_of_unity(1, 5) + root_of_unity(4, 5)) * 2
    a = (sqrt5 + 1) * Fraction(1, 4)
    b = (sqrt5 - 1) * Fraction(1, 4)
    return quaternion_matrix(0, 0, -1, 0), quaternion_matrix(a, b, Fraction(1, 2), 0)


# ---------------------------------------------------------------------------
# generic finite group container


def _walk_blocks(masks, queue, moves, step, K, spec):
    """Grow `masks[b]`, bit `s` set once key `b * K + s` is reached, from the
    blocks in `queue`.  Scalars being central, one `p = step(b * K, g)` per
    visit moves all of block `b`: its mask, rotated by `p % K`, into `p // K`."""
    order, full = len(masks) * K, (1 << K) - 1
    for b in queue:  # first in, first out: the queue grows as masks grow
        mask = masks[b]
        for g in moves:
            p = step(b * K, g)
            if not 0 <= p < order:
                raise InternalInvariantError(
                    f"product {p} of block {b} and generator {g} left the keys of {spec}",
                    witness={"spec": spec, "block": b, "generator": g, "product": p},
                )
            t, s = divmod(p, K)
            grown = masks[t] | (mask << s | mask >> (K - s)) & full
            if grown != masks[t]:
                masks[t] = grown
                queue.append(t)


def _close(gens, mult, order, K, spec):
    """Block masks of the subgroup that `gens` generate among `order` keys
    `b * K + s`: doubling rotations close block 0 under the scalars `g < K`,
    then `_walk_blocks` moves blocks by the rest under `mult`."""
    full, mask = (1 << K) - 1, 1
    for g in gens:
        if g < K:  # mask |= mask rotated by g, 2g, 4g, ...
            for _ in range(K.bit_length()):
                mask |= (mask << g | mask >> (K - g)) & full
                g = 2 * g % K
    masks = [mask] + [0] * (order // K - 1)
    _walk_blocks(masks, [0], [g for g in gens if g >= K], mult, K, spec)
    return masks


def _conjugation(mult):
    """The `_walk_blocks` step `a, (g, g^-1) -> g^-1 a g`."""
    return lambda a, g_gi: mult(g_gi[1], mult(a, g_gi[0]))


def _keys(masks, blocks, K):
    """The keys `b * K + s` marked in `masks[b]`, for `b` in `blocks`."""
    for b in blocks:
        m = masks[b]
        while m:  # one set bit at a time, lowest first
            yield b * K + (m & -m).bit_length() - 1
            m &= m - 1


def _smith_invariants(rows):
    """Invariant factors above 1 of `Z^n / rows`, for `n x n` rows of full
    rank: `d_k / d_(k-1)`, with `d_k` the gcd of the `k x k` minors (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4.4)."""

    def det(m):  # expanded along the first column
        return sum((-1) ** i * r[0] * det([q[1:] for q in m[:i] + m[i + 1 :]])
                   for i, r in enumerate(m)) if m else 1

    d = [1]
    for k in range(1, len(rows) + 1):
        picks = list(itertools.combinations(range(len(rows)), k))
        minors = (det([[rows[i][j] for j in js] for i in ks]) for ks in picks for js in picks)
        d.append(math.gcd(*minors))
    return tuple(b // a for a, b in zip(d, d[1:]) if b > a)


class FiniteGroup:
    """A finite subgroup of U(2) on dense integer keys.

    The keys are `range(order)` and the identity is 0; `mult` multiplies
    two keys and `to_matrix` gives the exact unitary matrix of one, so all
    queries are exact.  Every group carries `block = K`: its blocks
    `b * K + range(K)` are the cosets of the scalars, block 0 the scalars
    and key `s` the power mu^s of key 1.  A family group (see _model) has
    `K = 2m`; a group closed from matrices (`_matrix_group`), which adds
    -I, has the sign pairs as blocks (`K = 2`) and carries their Cayley
    table (`table[r][t] = a_2r a_2t`).  One walker, `_walk_blocks`, closes
    a family group and [G, G] under `mult` (through `_close`); under
    conjugation it marks the commutators' conjugates, checks that [G, G]
    is normal, and counts the classes, or lists them on blocks of one key.
    """

    identity = 0

    def __init__(self, order, mult, to_matrix, gens, block, spec=None, table=None):
        self.keys = range(order)
        self.mult = mult
        self.to_matrix = to_matrix
        self.gens = list(gens)
        self.spec = spec
        self.block = block
        self.table = table

    @staticmethod
    def from_generators(gens, mult, to_matrix, order, block, spec=None):
        """Close a family model's generators over its dense keys `b * K + s`
        (`K = block`) with `_close`, which must reach all of `range(order)`."""
        if order % block:
            raise InternalInvariantError(
                f"{order} keys of {spec} do not split into blocks of {block}",
                witness={"spec": spec, "order": order, "block_size": block},
            )
        found = sum(m.bit_count() for m in _close(gens, mult, order, block, spec))
        if found != order:
            raise InternalInvariantError(
                f"closure gave order {found}, expected {order} for {spec}",
                witness={"spec": spec, "found": found, "expected": order},
            )
        return FiniteGroup(order, mult, to_matrix, gens, block, spec)

    @property
    def order(self) -> int:
        return len(self.keys)

    def __len__(self):
        return len(self.keys)

    def matrices(self):
        return [self.to_matrix(k) for k in self.keys]

    def powers(self, key):
        """Yield key, key^2, ..., ending with the identity."""
        g = key
        yield g
        while g != self.identity:
            g = self.mult(g, key)
            yield g

    def inverse(self, key):
        """`g^(e-1) mu^-j` for the first power `g^e = mu^j` of `g = key` in
        block 0, so the walk stops at the scalars, not at the identity."""
        last = self.identity
        for g in self.powers(key):
            if g < self.block:
                return self.mult(last, -g % self.block)
            last = g

    def element_order(self, key) -> int:
        return sum(1 for _ in self.powers(key))

    def is_scalar_key(self, key) -> bool:
        return key < self.block

    def scalar_keys(self):
        return range(self.block)

    def _noncentral_generators(self):
        """(g, g^-1) for each non-scalar generator.  A scalar g fixes every
        key under conjugation and has trivial commutators, so conjugating by
        it is wasted work."""
        return [(g, self.inverse(g)) for g in self.gens if not self.is_scalar_key(g)]

    def _orbits(self, K):
        """Yield `(orbit, masks)` per orbit of the blocks of `K` keys under
        conjugation, walked by `_walk_blocks` from mask 1 on its least block."""
        masks, moves = [0] * (self.order // K), self._noncentral_generators()
        conjugate = _conjugation(self.mult)
        for b0 in range(len(masks)):
            if not masks[b0]:
                masks[b0], orbit = 1, [b0]
                _walk_blocks(masks, orbit, moves, conjugate, K, self.spec)
                yield orbit, masks

    def conjugacy_classes(self):
        """Partition of the keys into conjugacy classes, each sorted, in
        order of their least key: the orbits of blocks of one key (`K = 1`)."""
        return [sorted(orbit) for orbit, _ in self._orbits(1)]

    def class_count(self) -> int:
        """The number of conjugacy classes.  The orbit of block `b0` marks in
        `b0` the keys `b0 * K` times a subgroup of the scalars, of order `c`,
        so each of its blocks marks `c` keys and the orbit holds `K // c`."""
        K, spec, count = self.block, self.spec, 0
        for orbit, masks in self._orbits(K):
            if len(counts := {masks[b].bit_count() for b in orbit}) > 1:
                raise InternalInvariantError(
                    f"conjugacy orbit of block {orbit[0]} in {spec} splits unevenly",
                    witness={"spec": spec, "block": orbit[0], "counts": sorted(counts)},
                )
            count += K // counts.pop()
        return count

    def _commutator_masks(self, ginv):
        """Block masks of [G, G]: `_walk_blocks` marks the conjugates under
        `ginv` of the generator commutators, so the subgroup is normal, and
        `_close` closes the keys marked in the blocks that walk touched."""
        mult, K = self.mult, self.block
        comms = [mult(mult(ai, bi), mult(a, b)) for a, ai in ginv for b, bi in ginv]
        masks, touched = [0] * (self.order // K), [k // K for k in comms]
        for k in comms:
            masks[k // K] |= 1 << k % K
        _walk_blocks(masks, touched, ginv, _conjugation(mult), K, self.spec)
        return _close(list(_keys(masks, dict.fromkeys(touched), K)), mult, self.order, K, self.spec)

    def commutator_subgroup(self):
        """Keys of [G, G], read off its block masks."""
        masks = self._commutator_masks(self._noncentral_generators())
        return set(_keys(masks, range(len(masks)), self.block))

    def abelianization(self) -> AbelianInvariants:
        """Invariant factors of A = G/[G,G], from the masks of [G,G], which must
        be normal and hold the generator commutators.  In A, mu (key 1) has
        order c = K / |[G,G] in block 0|; each generator g outside block 0
        gets the least e with g^e t = mu^j h, h in [G,G], for one key
        t = prod g_i^t_i (0 <= t_i < e_i) per coset of the span so far, j read
        off the block of g^e t.  These relations are triangular, so
        |A| = c prod e, and their Smith invariants are the factors."""
        mult, K, spec = self.mult, self.block, self.spec
        ginv = self._noncentral_generators()
        masks = self._commutator_masks(ginv)
        conj = masks.copy()
        _walk_blocks(conj, [b for b, m in enumerate(masks) if m], ginv, _conjugation(mult), K, spec)
        if conj != masks:
            b = next(b for b, m in enumerate(masks) if m != conj[b])
            raise InternalInvariantError(
                f"conjugation moves [G,G] of {spec} into block {b}", {"spec": spec, "block": b})
        for (g, gi), (h, hi) in itertools.product(ginv, ginv):
            k = mult(mult(gi, hi), mult(g, h))
            if not masks[k // K] >> k % K & 1:
                raise InternalInvariantError(f"G/[G,G] of {spec} is not abelian",
                                             {"spec": spec, "generators": (g, h), "commutator": k})
        c = K // masks[0].bit_count()
        rows, cosets = [[c]], [(self.identity, [])]  # each t with its exponents t_i
        for g in (g for g in self.gens if g >= K):  # the scalars are powers of mu
            pows = [self.identity]  # g^0 .. g^(e-1)
            for ge in self.powers(g):  # it stops by g^order = 1, where t = 1 hits block 0
                hit = next(((p, ts) for t, ts in cosets if masks[(p := mult(ge, t)) // K]), None)
                if hit:
                    break
                pows.append(ge)
            (b, s), ts = divmod(hit[0], K), hit[1]
            rows.append([((masks[b] & -masks[b]).bit_length() - 1 - s) % c, *ts, len(pows)])
            cosets = [(mult(t, a), ts + [i]) for t, ts in cosets for i, a in enumerate(pows)]
        quotient, sub = math.prod(row[-1] for row in rows), sum(map(int.bit_count, masks))
        if quotient * sub != self.order:
            witness = {"spec": spec, "quotient": quotient, "subgroup": sub, "order": self.order}
            raise InternalInvariantError(
                f"|G/[G,G]| = {quotient} and |[G,G]| = {sub} miss |G| = {self.order}", witness)
        return AbelianInvariants(_smith_invariants([r + [0] * (len(rows) - len(r)) for r in rows]))


# ---------------------------------------------------------------------------
# constructors


def build_binary_polyhedral(kind: str) -> FiniteGroup:
    """Binary tetrahedral, octahedral or icosahedral subgroup of SU(2)."""
    if kind not in BINARY:
        raise ConstraintError(f"unknown binary polyhedral kind {kind!r}")
    x, y = _binary_generators(kind)
    expect, k = BINARY[kind]
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    for g, e in ((x, 2), (y, k), (x * y, 3)):
        if g**e != minus:
            witness = {"kind": kind, "found": g.matrix_order(), "expected": 2 * e}
            raise InternalInvariantError(f"{kind} generator relations failed", witness)
    group = _matrix_group([x, y], 2 * expect)
    if group.order != expect:
        raise InternalInvariantError(
            f"{kind} closure gave order {group.order}, expected {expect}",
            witness={"kind": kind, "found": group.order, "expected": expect},
        )
    return group


def _matrix_group(gens, bound) -> FiniteGroup:
    """The group generated by the matrices `gens` and -I, with its Cayley
    table, keyed in sign pairs: each new matrix is appended with its
    negative, so key `2r + 1` is minus key `2r` and `K = 2`.

    The breadth-first search multiplies only the even keys: as
    `(-a) g = -(a g)`, a step on key `2r + 1` is the step on key `2r` with
    the low bit flipped.  The table holds one entry per pair of blocks,
    `table[r][t] = a_2r a_2t`, and `mult` reads the signs off the low bits,
    since `(-a) b = a (-b) = -(a b)`.  Column `t` follows from that of the
    parent of `a_2t = a_p g`, since `a_2r a_2t = (a_2r a_p) g`."""
    one = UnitaryElement(((1, 0), (0, 1)), check=False)
    mats, seen = [one, -one], {one: 0, -one: 1}
    steps, parent = [[] for _ in gens], []  # (parent's block, step) per pair after 0
    for i, a in itertools.islice(enumerate(mats), 0, None, 2):  # a queue: mats grows
        for step, g in zip(steps, gens):
            p = a * g
            j = seen.setdefault(p, len(mats))
            if j == len(mats):  # p is new, and so is -p
                if j + 2 > bound:
                    raise InternalInvariantError(f"closure exceeded the order bound {bound}",
                                                 witness={"bound": bound, "generators": gens})
                mats += (p, -p)
                seen[mats[-1]] = j + 1
                parent.append((i >> 1, step))
            step += (j, j ^ 1)
    if (k := next((k for k in range(2, len(mats)) if mats[k].is_scalar()), None)) is not None:
        raise InternalInvariantError(f"scalar key {k} lies outside block 0 of size 2",
                                     witness={"key": k, "matrix": mats[k], "block_size": 2})
    cols = [range(0, len(mats), 2)]
    for p, step in parent:
        cols.append([step[k] for k in cols[p]])
    table = list(zip(*cols))  # table[r][t] = a_2r a_2t
    return FiniteGroup(len(mats), lambda a, b: table[a >> 1][b >> 1] ^ ((a ^ b) & 1),
                       mats.__getitem__, [step[0] for step in steps], 2, table=table)


def build_group(spec: GroupSpec) -> FiniteGroup:
    """The full matrix group of a family spec, closed block by block."""
    from . import _model

    if spec.order > sys.maxsize:  # the keys are range(|G|), whose len() must fit
        raise ConstraintError(f"|G| = {spec.order} of {spec} exceeds {sys.maxsize}")
    if spec.order > KEY_BOUND or spec.gamma_order > BLOCK_BOUND:
        raise ConstraintError(f"{spec} has {spec.order} keys in {spec.gamma_order} blocks; the "
                              f"closure takes at most {KEY_BOUND} keys and {BLOCK_BOUND} blocks")
    model = _model.family_model(spec)
    return FiniteGroup.from_generators(
        model.generators(), model.mult, model.to_matrix, spec.order, model.K, spec
    )


# ---------------------------------------------------------------------------
# queries


def verify_free_action(group: FiniteGroup) -> bool:
    """True iff no non-identity element fixes a nonzero vector (eigenvalue 1)."""
    for k in group.keys[1:]:  # every key but the identity 0
        (a, b), (c, d) = group.to_matrix(k).entries
        if ((a - 1) * (d - 1) - b * c).is_zero():  # det(g - 1)
            return False
    return True


def eigen_exponents(g: UnitaryElement):
    """(d, a, b) with a <= b: the eigenvalues of g are zeta_d^a and zeta_d^b,
    and d, the least common order of the two, is the order of g.

    Found from the trace and determinant alone (the roots of the
    characteristic polynomial), so the result owes nothing to how g was
    built.
    """
    trace, det = g.trace(), g.det()
    try:
        return root_pair(trace, det)
    except DomainError as exc:
        raise InternalInvariantError(
            "no root-of-unity eigenvalues found", witness={"trace": trace, "det": det}
        ) from exc


def eigen_angles(g: UnitaryElement):
    """Both eigenvalues as exact roots of unity, sorted by exponent."""
    d, a, b = eigen_exponents(g)
    return (root_of_unity(a, d), root_of_unity(b, d))


def scalar_subgroup(group: FiniteGroup) -> FiniteGroup:
    """The subgroup of scalar matrices: the first block, cyclic of order
    `K` and generated by key 1 (mu_2m in a family group, -I in T, O and I);
    the trivial group, with no generator, when `K = 1`."""
    K = group.block
    return FiniteGroup(K, group.mult, group.to_matrix, [1] if K > 1 else [], K, group.spec)


def group_report(group: FiniteGroup) -> dict:
    report = {
        "order": group.order,
        "scalar_order": len(group.scalar_keys()),
        "class_count": group.class_count(),
        "abelianization": list(group.abelianization().factors),
    }
    return report if group.spec is None else {**group.spec.to_dict(), **report}
