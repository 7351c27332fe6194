"""Finite subgroups of U(2) acting freely on the 3-sphere.

Covers the six non-abelian families built from a scalar cyclic group and
a binary polyhedral group, tagged DD, DC, TT, TD, OO, II.  Groups carry
exact 2x2 cyclotomic matrices; the large parameter sweeps run on a
structured scalar*atom representation (see _model) whose multiplication
agrees with matrix multiplication by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CyclotomicNumber, root_exponent, root_of_unity, root_pair
from .errors import ConstraintError, DomainError, InternalInvariantError

FAMILIES = ("DD", "DC", "TT", "TD", "OO", "II")

_FAMILY_NEEDS_N = {"DD": True, "DC": True, "TT": False, "TD": False, "OO": False, "II": False}


@dataclass(frozen=True)
class GroupSpec:
    """One of the six families plus its parameters."""

    family: str
    m: int
    n: int = 0

    def validate(self) -> "GroupSpec":
        f, m, n = self.family, self.m, self.n
        if f not in FAMILIES:
            raise ConstraintError(f"unknown family {f!r}; expected one of {FAMILIES}")
        if m < 1:
            raise ConstraintError("m must be a positive integer")
        if _FAMILY_NEEDS_N[f]:
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
        f = self.family
        if f in ("DD", "DC"):
            return 4 * self.m * self.n
        return {"TT": 24, "TD": 24, "OO": 48, "II": 120}[f] * self.m

    @property
    def scalar_order(self) -> int:
        return 2 * self.m

    @property
    def gamma_order(self) -> int:
        """Order of G modulo its scalar subgroup."""
        return self.order // self.scalar_order

    def to_dict(self) -> dict:
        d = {"family": self.family, "m": self.m}
        if _FAMILY_NEEDS_N[self.family]:
            d["n"] = self.n
        return d


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d1 | d2 | ... of a finite abelian group."""

    factors: tuple

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise InternalInvariantError("invariant factors must form a divisor chain")
        if any(d <= 1 for d in self.factors):
            raise InternalInvariantError("invariant factors must exceed 1")

    @property
    def group_order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    def __str__(self):
        if not self.factors:
            return "1"
        return " + ".join(f"Z{d}" for d in self.factors)


# ---------------------------------------------------------------------------
# matrix layer


class UnitaryElement:
    """A 2x2 unitary matrix with exact cyclotomic entries."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries, check: bool = True):
        rows = tuple(tuple(_as_cyc(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_hash", None)
        if check:
            self._check_unitary()

    def __setattr__(self, *a):
        raise AttributeError("UnitaryElement is immutable")

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

    def dagger(self) -> "UnitaryElement":
        (a, b), (c, d) = self.entries
        return UnitaryElement(
            ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate())),
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
            raise InternalInvariantError("matrix is not of finite order")
        return d

    def __pow__(self, k: int) -> "UnitaryElement":
        """Non-negative power by square-and-multiply."""
        out = UnitaryElement(((1, 0), (0, 1)), check=False)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, UnitaryElement):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.entries))
        return self._hash

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


def binary_dihedral_generators(n: int):
    y = UnitaryElement(
        ((root_of_unity(1, 2 * n), 0), (0, root_of_unity(-1, 2 * n))), check=False
    )
    x = UnitaryElement(((0, 1), (-1, 0)), check=False)
    return x, y


def binary_tetrahedral_generators():
    # x = j; y = (1 + i - j + k)/2, of order 6 with (xy)^3 = -1.
    h = Fraction(1, 2)
    x = quaternion_matrix(0, 0, 1, 0)
    y = quaternion_matrix(h, h, -h, h)
    return x, y


def binary_octahedral_generators():
    # y = (1 + i)/sqrt2 = diag(zeta_8, zeta_8^-1); x = (-i + j)/sqrt2.
    r = (root_of_unity(1, 8) - root_of_unity(3, 8)) * Fraction(1, 2)  # 1/sqrt2
    x = quaternion_matrix(0, -r, r, 0)
    y = UnitaryElement(((root_of_unity(1, 8), 0), (0, root_of_unity(-1, 8))), check=False)
    return x, y


def binary_icosahedral_generators():
    # tau = (1 + sqrt5)/2 with sqrt5 = 1 + 2(zeta_5 + zeta_5^4);
    # y = (tau + tau^-1 i + j)/2 of order 10, x = -j, (xy)^3 = -1.
    sqrt5 = CyclotomicNumber.one() + (root_of_unity(1, 5) + root_of_unity(4, 5)) * 2
    a = (sqrt5 + 1) * Fraction(1, 4)
    b = (sqrt5 - 1) * Fraction(1, 4)
    x = quaternion_matrix(0, 0, -1, 0)
    y = quaternion_matrix(a, b, Fraction(1, 2), 0)
    return x, y


# ---------------------------------------------------------------------------
# generic finite group container


class FiniteGroup:
    """A finite matrix group, stored as hashable element keys.

    Keys are either UnitaryElement matrices or compact scalar*atom tuples;
    `mult` and `to_matrix` come from the backing domain, so all queries are
    exact either way.
    """

    def __init__(self, keys, index, mult, identity, to_matrix, gens=(), scalar_pred=None, spec=None, bfs_parent=None):
        self.keys = keys
        self.index = index
        self.mult = mult
        self.identity = identity
        self.to_matrix = to_matrix
        self.gens = list(gens)
        self._scalar_pred = scalar_pred
        self.spec = spec
        self.bfs_parent = bfs_parent  # index -> (parent index, generator index)
        self._inverse = {}

    @staticmethod
    def from_generators(gens, mult, identity, to_matrix, order_bound, scalar_pred=None, spec=None):
        """Breadth-first closure with an abort if the bound is exceeded."""
        keys = [identity]
        index = {identity: 0}
        parent = [None]
        frontier = [identity]
        while frontier:
            new = []
            for a in frontier:
                ia = index[a]
                for gi, g in enumerate(gens):
                    p = mult(a, g)
                    if p not in index:
                        index[p] = len(keys)
                        keys.append(p)
                        parent.append((ia, gi))
                        new.append(p)
                        if len(keys) > order_bound:
                            raise InternalInvariantError(
                                f"closure exceeded the order bound {order_bound}"
                            )
            frontier = new
        return FiniteGroup(keys, index, mult, identity, to_matrix, gens, scalar_pred, spec, parent)

    @property
    def order(self) -> int:
        return len(self.keys)

    def __len__(self):
        return len(self.keys)

    def matrix(self, key) -> UnitaryElement:
        return self.to_matrix(key)

    def matrices(self):
        return [self.to_matrix(k) for k in self.keys]

    def inverse(self, key):
        """Inverse by cycle walking; fills the whole cyclic subgroup at once."""
        inv = self._inverse
        got = inv.get(key)
        if got is not None:
            return got
        cycle = [key]
        g = self.mult(key, key)
        while g != self.identity:
            cycle.append(g)
            g = self.mult(g, key)
        cycle.append(self.identity)
        # cycle[i] = key^(i+1); inverse of key^(i+1) is key^(len-1-i).
        d = len(cycle)
        for i, e in enumerate(cycle):
            inv.setdefault(e, cycle[d - 2 - i] if d - 2 - i >= 0 else self.identity)
        inv[self.identity] = self.identity
        return inv[key]

    def element_order(self, key) -> int:
        k = 1
        g = key
        while g != self.identity:
            g = self.mult(g, key)
            k += 1
        return k

    def is_scalar_key(self, key) -> bool:
        if self._scalar_pred is not None:
            return self._scalar_pred(key)
        return self.to_matrix(key).is_scalar()

    def scalar_keys(self):
        return [k for k in self.keys if self.is_scalar_key(k)]

    def conjugacy_classes(self):
        """Partition of element indices into conjugacy classes."""
        seen = [False] * len(self.keys)
        gens = self.gens or self.keys
        ginv = [(g, self.inverse(g)) for g in gens]
        classes = []
        for i, k in enumerate(self.keys):
            if seen[i]:
                continue
            orbit = [k]
            seen[i] = True
            queue = [k]
            while queue:
                a = queue.pop()
                for g, gi in ginv:
                    b = self.mult(gi, self.mult(a, g))
                    j = self.index[b]
                    if not seen[j]:
                        seen[j] = True
                        orbit.append(b)
                        queue.append(b)
            classes.append(sorted(self.index[e] for e in orbit))
        classes.sort(key=lambda cl: cl[0])
        return classes

    def commutator_subgroup(self):
        """Keys of [G, G]: the normal closure of generator commutators."""
        gens = self.gens or self.keys
        seeds = set()
        for a in gens:
            ai = self.inverse(a)
            for b in gens:
                bi = self.inverse(b)
                seeds.add(self.mult(self.mult(ai, bi), self.mult(a, b)))
        sub = {self.identity}
        frontier = set(seeds) - sub
        sub |= frontier
        while frontier:
            new = set()
            for a in frontier:
                for g in gens:
                    c = self.mult(self.mult(self.inverse(g), a), g)
                    if c not in sub:
                        new.add(c)
                for b in list(sub):
                    p = self.mult(a, b)
                    if p not in sub and p not in new:
                        new.add(p)
            sub |= new
            frontier = new
        return sub

    def abelianization(self) -> AbelianInvariants:
        """Invariant factors of G/[G,G], by repeated maximal-cyclic quotients.

        A cyclic subgroup of maximal order in a finite abelian group is a
        direct summand, so peeling one off at a time yields the divisor chain.
        """
        h = self.commutator_subgroup()
        reps = _coset_quotient(self, h)
        factors = []
        while True:
            e = reps[self.identity]
            distinct = sorted(set(reps.values()), key=_keysort)
            if len(distinct) <= 1:
                break
            best, best_order = None, 0
            for r in distinct:
                if r == e:
                    continue
                d = _coset_order(self, reps, r)
                if d > best_order:
                    best, best_order = r, d
            factors.append(best_order)
            reps = _quotient_by_cyclic(self, reps, best)
        factors.sort()
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise InternalInvariantError("greedy quotient chain broke the divisor chain")
        return AbelianInvariants(tuple(factors))


def _coset_quotient(group, subgroup):
    """Map key -> canonical (minimal) representative of its right coset key*H."""
    sub = sorted(subgroup, key=_keysort)
    reps = {}
    for k in group.keys:
        if k in reps:
            continue
        coset = [group.mult(k, h) for h in sub]
        rep = min(coset, key=_keysort)
        for e in coset:
            reps[e] = rep
    return reps


def _keysort(k):
    return repr(k) if isinstance(k, UnitaryElement) else k


def _coset_order(group, reps, r):
    e = reps[group.identity]
    g = r
    k = 1
    while g != e:
        g = reps[group.mult(g, r)]
        k += 1
    return k


def _quotient_by_cyclic(group, reps, g0):
    """Collapse the quotient further by the cyclic group generated by g0."""
    e = reps[group.identity]
    cyc = [e]
    g = g0
    while g != e:
        cyc.append(g)
        g = reps[group.mult(g, g0)]
    out = {}
    klass = {}
    for k, r in reps.items():
        if r in klass:
            out[k] = klass[r]
            continue
        coset = sorted((reps[group.mult(r, c)] for c in cyc), key=_keysort)
        rep = coset[0]
        for c in coset:
            klass[c] = rep
        out[k] = klass[r]
    return out


# ---------------------------------------------------------------------------
# constructors


_POLYHEDRAL = {
    "T": (binary_tetrahedral_generators, 24, 3),
    "O": (binary_octahedral_generators, 48, 4),
    "I": (binary_icosahedral_generators, 120, 5),
}


def build_binary_polyhedral(kind: str, n: int = 0) -> FiniteGroup:
    """Binary cyclic/dihedral/tetrahedral/octahedral/icosahedral subgroup of SU(2)."""
    if kind == "C":
        if n < 1:
            raise ConstraintError("cyclic subgroup needs order n >= 1")
        g = UnitaryElement(((root_of_unity(1, n), 0), (0, root_of_unity(-1, n))), check=False)
        group = _matrix_group([g], 2 * n)
        if group.order != n:
            raise InternalInvariantError("cyclic group closure has wrong order")
        return group
    if kind == "D":
        if n < 2:
            raise ConstraintError("binary dihedral group needs n >= 2")
        x, y = binary_dihedral_generators(n)
        expect, yord = 4 * n, n
    elif kind in _POLYHEDRAL:
        gen_fn, expect, yord = _POLYHEDRAL[kind]
        x, y = gen_fn()
    else:
        raise ConstraintError(f"unknown binary polyhedral kind {kind!r}")
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    for g, k in ((x, 2), (y, yord), (x * y, 2 if kind == "D" else 3)):
        p = g
        for _ in range(k - 1):
            p = p * g
        if p != minus:
            raise InternalInvariantError(f"{kind} generator relations failed")
    group = _matrix_group([x, y], 2 * expect)
    if group.order != expect:
        raise InternalInvariantError(
            f"{kind} closure gave order {group.order}, expected {expect}"
        )
    return group


def _matrix_group(gens, bound) -> FiniteGroup:
    identity = UnitaryElement(((1, 0), (0, 1)), check=False)
    return FiniteGroup.from_generators(
        gens,
        lambda a, b: a * b,
        identity,
        lambda k: k,
        order_bound=bound,
    )


def build_group(spec: GroupSpec) -> FiniteGroup:
    """The full matrix group of a family spec, via breadth-first closure."""
    spec.validate()
    from . import _model

    model = _model.family_model(spec)
    group = FiniteGroup.from_generators(
        model.generators(),
        model.mult,
        model.identity,
        model.to_matrix,
        order_bound=2 * spec.order,
        scalar_pred=model.is_scalar,
        spec=spec,
    )
    if group.order != spec.order:
        raise InternalInvariantError(
            f"closure gave order {group.order}, expected {spec.order} for {spec}"
        )
    return group


# ---------------------------------------------------------------------------
# queries


def verify_free_action(group: FiniteGroup) -> bool:
    """True iff no non-identity element fixes a nonzero vector (eigenvalue 1)."""
    one = CyclotomicNumber.one()
    for k in group.keys:
        if k == group.identity:
            continue
        m = group.to_matrix(k)
        (a, b), (c, d) = m.entries
        if ((a - one) * (d - one) - b * c).is_zero():
            return False
    return True


def eigen_exponents(g: UnitaryElement):
    """(d, a, b) with a <= b: the eigenvalues of g are zeta_d^a and zeta_d^b,
    and d, the least common order of the two, is the order of g.

    Found from the trace and determinant alone (the roots of the
    characteristic polynomial), so the result owes nothing to how g was
    built.
    """
    try:
        return root_pair(g.trace(), g.det())
    except DomainError as exc:
        raise InternalInvariantError("no root-of-unity eigenvalues found") from exc


def eigen_angles(g: UnitaryElement):
    """Both eigenvalues as exact roots of unity, sorted by exponent."""
    d, a, b = eigen_exponents(g)
    return (root_of_unity(a, d), root_of_unity(b, d))


def scalar_subgroup(group: FiniteGroup) -> FiniteGroup:
    """The subgroup of scalar matrices; cyclic of order 2m for every family."""
    keys = [k for k in group.keys if group.is_scalar_key(k)]
    index = {k: i for i, k in enumerate(keys)}
    sub = FiniteGroup(
        keys, index, group.mult, group.identity, group.to_matrix, spec=group.spec
    )
    # Closed by centrality; pick a generator for conjugacy/abelianization use.
    for k in keys:
        if sub.element_order(k) == len(keys):
            sub.gens = [k]
            break
    return sub


def det_character(group: FiniteGroup):
    """The determinant homomorphism as a character."""
    from .bundle import Character

    roots = []
    for k in group.keys:
        try:
            roots.append(root_exponent(group.to_matrix(k).det()))
        except DomainError as exc:
            raise InternalInvariantError("determinant is not a root of unity") from exc
    d = math.lcm(*(o for o, _ in roots)) if roots else 1
    exps = [e * (d // o) for o, e in roots]
    return Character(group, d, exps, generators=[("det", g) for g in group.gens])


def group_report(group: FiniteGroup) -> dict:
    spec = group.spec
    ab = group.abelianization()
    report = {
        "order": group.order,
        "scalar_order": len(group.scalar_keys()),
        "class_count": len(group.conjugacy_classes()),
        "abelianization": list(ab.factors),
    }
    if spec is not None:
        report = {**spec.to_dict(), **report}
    return report
