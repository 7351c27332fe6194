"""Structured exact models of the six group families.

Every group element is a scalar root of unity times an element of a fixed
binary polyhedral group ("atom").  Keys are small integer tuples whose
multiplication mirrors matrix multiplication exactly; `to_matrix` recovers
the honest unitary matrix.  The polyhedral atom tables are built once per
kind from exact matrices and validated against the defining relations.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclo import CyclotomicNumber, root_of_unity
from .errors import InternalInvariantError
from .groups import GroupSpec, UnitaryElement, build_binary_polyhedral, eigen_exponents

_BASE_ORDER = {"T": 12, "O": 24, "I": 60}


class _SU2Table:
    """Multiplication table and per-atom data for one binary polyhedral group."""

    def __init__(self, kind: str):
        group = build_binary_polyhedral(kind)
        self.kind = kind
        self.atoms = group.keys
        self.index = group.index
        n = len(self.atoms)
        # Right-multiplication permutations per generator, then fill the full
        # table down the breadth-first tree: a_i (a_p g) = (a_i a_p) g.
        perms = [[self.index[a * g] for a in self.atoms] for g in group.gens]
        self.mult = [[0] * n for _ in range(n)]
        for i in range(n):
            self.mult[i][0] = i
        for j in range(1, n):
            p, gi = group.bfs_parent[j]
            perm = perms[gi]
            col_p = p
            mj = self.mult
            for i in range(n):
                mj[i][j] = perm[mj[i][col_p]]
        minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
        minus_idx = self.index[minus]
        self.neg = [self.mult[minus_idx][i] for i in range(n)]
        self.ident = self.index[group.identity]
        self.pos = [min(i, self.neg[i]) for i in range(n)]
        self.order = []
        for i in range(n):
            t, g = 1, i
            while g != self.ident:
                g = self.mult[g][i]
                t += 1
            self.order.append(t)
        self.image_order = []
        for i in range(n):
            t, g = 1, i
            while g != self.ident and g != minus_idx:
                g = self.mult[g][i]
                t += 1
            self.image_order.append(t)
        # Label order: the largest image order over cyclic subgroups containing
        # the atom.  This separates, say, the quaternion elements inside the
        # order-8 subgroups of the octahedral group from the stand-alone
        # order-4 subgroups, matching the standard cyclic-subgroup partition.
        self.label_order = list(self.image_order)
        for b_at in range(n):
            io_b = self.image_order[b_at]
            g = self.mult[b_at][b_at]
            while g != self.ident:
                if self.label_order[g] < io_b:
                    self.label_order[g] = io_b
                g = self.mult[g][b_at]
        b = _BASE_ORDER[kind]
        self.base = b
        self.eigen = []
        for i, a in enumerate(self.atoms):
            d, e1, e2 = eigen_exponents(a)
            if d != self.order[i] or b % d:
                raise InternalInvariantError("atom eigenvalues disagree with the table order")
            self.eigen.append((e1 * (b // d), e2 * (b // d)))
        if kind == "T":
            # Classes modulo the order-8 quaternion subgroup, indexed by powers
            # of the chosen order-6 generator.
            q8 = {i for i in range(n) if self.order[i] in (1, 2, 4)}
            if len(q8) != 8:
                raise InternalInvariantError("quaternion subgroup of the T table is wrong")
            y_idx = None
            for i in range(n):
                if self.order[i] == 6:
                    y_idx = i
                    break
            y_inv = self._power(y_idx, self.order[y_idx] - 1)
            self.class3 = []
            for i in range(n):
                if i in q8:
                    self.class3.append(0)
                elif self.mult[y_inv][i] in q8:
                    self.class3.append(1)
                else:
                    if self.mult[self._power(y_inv, 2)][i] not in q8:
                        raise InternalInvariantError("T table is not graded mod 3")
                    self.class3.append(2)
            for i in range(n):
                for j in range(n):
                    if (self.class3[i] + self.class3[j]) % 3 != self.class3[self.mult[i][j]]:
                        raise InternalInvariantError("class grading is not multiplicative")
        # Generator atom indices (match the matrix constructors).
        self.gen_x = self.index[group.gens[0]]
        self.gen_y = self.index[group.gens[1]]
        if kind == "T" and self.class3[self.gen_y] != 1:
            # The mixed-family grading is defined through powers of gen_y.
            raise InternalInvariantError("order-6 generator must carry class 1")

    def _power(self, i: int, k: int) -> int:
        out = self.ident
        for _ in range(k):
            out = self.mult[out][i]
        return out


@lru_cache(maxsize=None)
def su2_table(kind: str) -> _SU2Table:
    return _SU2Table(kind)


class CosetData:
    """One scalar-subgroup coset for the index engine."""

    __slots__ = ("label_order", "count", "w2m", "a_exp", "b_exp")

    def __init__(self, label_order, count, w2m, a_exp, b_exp):
        self.label_order = label_order
        self.count = count
        self.w2m = w2m
        self.a_exp = a_exp
        self.b_exp = b_exp


class DihedralModel:
    """Families DD and DC: scalars times a binary dihedral group."""

    is_dihedral = True

    def __init__(self, spec: GroupSpec):
        spec.validate()
        self.spec = spec
        self.m, self.n = spec.m, spec.n
        self.K = 2 * spec.m
        self.c0 = spec.gamma_order  # 2n
        if spec.family == "DD":
            self.N = math.lcm(2 * spec.m, 2 * spec.n, 4)
        else:
            self.N = math.lcm(4 * spec.m, 2 * spec.n, 4)
        self._rot_step = self.N // (2 * spec.n)
        self._quarter = self.N // 4

    # keys: DD (t, l, k) with x^t y^l mu_2m^k; DC (l, j) with x^(j&1) y^l mu_4m^j

    @property
    def identity(self):
        return (0, 0, 0) if self.spec.family == "DD" else (0, 0)

    def generators(self):
        if self.spec.family == "DD":
            return [(0, 0, 1), (1, 0, 0), (0, 1 % self.n, 0)]  # h, x, y
        return [(0, 2), (0, 1), (1, 0)]  # h^2, hx, y

    def mult(self, A, B):
        m, n = self.m, self.n
        if self.spec.family == "DD":
            t1, l1, k1 = A
            t2, l2, k2 = B
            k = (k1 + k2) % (2 * m)
            if t2 == 0:
                t, L = t1, l1 + l2
            elif t1 == 0:
                t, L = 1, l2 - l1
            else:
                t, L = 0, l2 - l1 + n
            L %= 2 * n
            if L >= n:
                L -= n
                k = (k + m) % (2 * m)
            return (t, L, k)
        l1, j1 = A
        l2, j2 = B
        e1, e2 = j1 & 1, j2 & 1
        j = j1 + j2
        if e2 == 0:
            L = l1 + l2
        else:
            L = l2 - l1
            if e1:
                j += 2 * m
        L %= 2 * n
        if L >= n:
            L -= n
            j += 2 * m
        return (L, j % (4 * m))

    def is_scalar(self, key) -> bool:
        if self.spec.family == "DD":
            t, l, _ = key
            return t == 0 and l == 0
        l, j = key
        return l == 0 and (j & 1) == 0

    def scalar_exp(self, key) -> int:
        return key[2] if self.spec.family == "DD" else key[1] // 2

    def rho_exp_2m(self, key) -> int:
        m, n = self.m, self.n
        if self.spec.family == "DD":
            t, _, k = key
            return (n * (2 * k + m * t)) % (2 * m)
        l, j = key
        return (n * (j + m * (j & 1))) % (2 * m)

    def eigen_exps(self, key):
        N = self.N
        if self.spec.family == "DD":
            t, l, k = key
            s = k * (N // (2 * self.m))
        else:
            l, j = key
            t = j & 1
            s = j * (N // (4 * self.m))
        if t == 0:
            e = l * self._rot_step
        else:
            e = self._quarter
        return ((s + e) % N, (s - e) % N)

    def elements(self):
        m, n = self.m, self.n
        if self.spec.family == "DD":
            for t in (0, 1):
                for l in range(n):
                    for k in range(2 * m):
                        yield (t, l, k)
        else:
            for l in range(n):
                for j in range(4 * m):
                    yield (l, j)

    def to_matrix(self, key) -> UnitaryElement:
        n = self.n
        if self.spec.family == "DD":
            t, l, k = key
            scal = root_of_unity(k, 2 * self.m)
        else:
            l, j = key
            t = j & 1
            scal = root_of_unity(j, 4 * self.m)
        a = root_of_unity(l, 2 * n)
        ai = root_of_unity(-l, 2 * n)
        zero = CyclotomicNumber.zero()
        if t == 0:
            rows = ((scal * a, zero), (zero, scal * ai))
        else:
            rows = ((zero, scal * ai), (-(scal * a), zero))
        return UnitaryElement(rows, check=False)

    def reflection_coset(self) -> CosetData:
        """All n reflection cosets share one descriptor."""
        base = (1, 0, 0) if self.spec.family == "DD" else (0, 1)
        a, b = self.eigen_exps(base)
        return CosetData(2, self.n, self.rho_exp_2m(base), a, b)

    def validate_free_action(self):
        N, K = self.N, self.K
        step = N // K
        for l in range(1, self.n):
            if (l * self._rot_step) % step == 0:
                raise InternalInvariantError("rotation coset contains a non-free element")
        refl = self.reflection_coset()
        for e in (refl.a_exp, refl.b_exp):
            if e % step == 0:
                raise InternalInvariantError("reflection coset contains a non-free element")


class PolyhedralModel:
    """Families TT, TD, OO, II: scalars times a binary polyhedral group."""

    is_dihedral = False

    def __init__(self, spec: GroupSpec):
        spec.validate()
        self.spec = spec
        self.m = spec.m
        self.kind = {"TT": "T", "TD": "T", "OO": "O", "II": "I"}[spec.family]
        self.table = su2_table(self.kind)
        self.K = 2 * spec.m
        self.c0 = spec.gamma_order
        if spec.family == "TD":
            self.amb = 6 * spec.m
            self.halfshift = 3 * spec.m
        else:
            self.amb = 2 * spec.m
            self.halfshift = spec.m
        self.N = math.lcm(self.amb, self.table.base)

    def _canon(self, a: int, k: int):
        t = self.table
        if a != t.pos[a]:
            a = t.neg[a]
            k += self.halfshift
        return (a, k % self.amb)

    @property
    def identity(self):
        return (self.table.ident, 0)

    def generators(self):
        t = self.table
        if self.spec.family == "TD":
            return [
                (t.ident, 3),
                self._canon(t.gen_x, 0),
                self._canon(t.gen_y, 1),
            ]
        return [(t.ident, 1), self._canon(t.gen_x, 0), self._canon(t.gen_y, 0)]

    def mult(self, A, B):
        a1, k1 = A
        a2, k2 = B
        return self._canon(self.table.mult[a1][a2], k1 + k2)

    def is_scalar(self, key) -> bool:
        return key[0] == self.table.ident

    def scalar_exp(self, key) -> int:
        return key[1] // 3 if self.spec.family == "TD" else key[1]

    def rho_exp_2m(self, key) -> int:
        if self.spec.family == "TD":
            return (4 * key[1]) % (2 * self.m)
        return (self.c0 * key[1]) % (2 * self.m)

    def eigen_exps(self, key):
        a, k = key
        N = self.N
        s = k * (N // self.amb)
        step = N // self.table.base
        e1, e2 = self.table.eigen[a]
        return ((s + e1 * step) % N, (s + e2 * step) % N)

    def elements(self):
        t = self.table
        for a in range(len(t.atoms)):
            if t.pos[a] != a:
                continue
            if self.spec.family == "TD":
                c = t.class3[a]
                for j in range(c % 3, self.amb, 3):
                    yield (a, j)
            else:
                for k in range(self.amb):
                    yield (a, k)

    def to_matrix(self, key) -> UnitaryElement:
        a, k = key
        scal = root_of_unity(k, self.amb)
        (p, q), (r, s) = self.table.atoms[a].entries
        return UnitaryElement(
            ((scal * p, scal * q), (scal * r, scal * s)), check=False
        )

    def base_key(self, a: int):
        if self.spec.family == "TD":
            return (a, self.table.class3[a])
        return (a, 0)

    def nonscalar_cosets(self):
        t = self.table
        for a in range(len(t.atoms)):
            if t.pos[a] != a or a == t.ident:
                continue
            base = self.base_key(a)
            e1, e2 = self.eigen_exps(base)
            yield CosetData(t.label_order[a], 1, self.rho_exp_2m(base), e1, e2)

    def validate_free_action(self):
        step = self.N // self.K
        for data in self.nonscalar_cosets():
            if data.a_exp % step == 0 or data.b_exp % step == 0:
                raise InternalInvariantError("coset contains a non-free element")


def family_model(spec: GroupSpec):
    if spec.family in ("DD", "DC"):
        return DihedralModel(spec)
    return PolyhedralModel(spec)
