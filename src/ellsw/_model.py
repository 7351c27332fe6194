"""Structured exact models of the six group families.

Every group element is a scalar root of unity times an element of a fixed
binary polyhedral group ("atom").  Keys are dense integers `b * K + s`
with `K = 2m`: the block `b` is the coset of the scalar subgroup, and the
key is the block's element times `mu_2mw^(w*s + c(b))` for a character `c`
of the binary group onto `Z/w`.  DC (`w = 2`, `c(x^t y^l) = t`) and TD
(`w = 3`, `c` the grading T -> T/Q8) are the index-`w` subgroups that `c`
cuts out of `Z_2mw` times the binary group; DD, TT, OO and II are the
untwisted case `w = 1`, `c = 0`.  The identity is 0 and the scalars are
exactly block 0, so `range(|G|)` is the whole group.  `mult` mirrors
matrix multiplication exactly and `to_matrix` recovers the honest unitary
matrix.  The polyhedral atom tables are built once per kind on the sign
pairs of `build_binary_polyhedral`, reusing its Cayley table and exact
matrices, and are validated against the defining relations; block `r` of
a family key holds the atom pair `+-a_r`, and every table is indexed by
`r`.  An atom's eigenvalues are the pair of roots of its order, from the
power walk, whose sum is its trace.

The models also own the partition behind the labelled chi-subtotals:
`labels` lists the labels in report order and `label(key)` names the
label of one key (Lambda1..Lambda3 for DD/DC, S0..S3 for TT/TD/OO/II).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache

from .bundle import extend_character
from .cyclo import CyclotomicNumber, root_of_unity
from .errors import CharacterConflictError, ConstraintError, InternalInvariantError
from .groups import BINARY_KIND, GroupSpec, UnitaryElement, build_binary_polyhedral


class _SU2Table:
    """Cayley table and per-atom data of one binary polyhedral group by block:
    atom `a_r` is the group's key `2r`, and `mult[r][t]` the key of `a_r a_t`."""

    def __init__(self, kind: str):
        group = build_binary_polyhedral(kind)
        self.mult = group.table
        self.atoms = group.matrices()[::2]
        # Generator blocks (match the matrix constructors); x^2 = -1.
        x, y = group.gens
        self.gen_x, self.gen_y = x // 2, y // 2
        walks = [list(group.powers(a)) for a in range(0, group.order, 2)]
        self.order = [len(w) for w in walks]
        # Image order: the first power that is +-1.  -1 is SU(2)'s only element
        # of order 2, so that is d/2 for an atom of even order d, else d.
        image_order = [d // 2 if d % 2 == 0 else d for d in self.order]
        # Label order: the largest image order over cyclic subgroups containing
        # the atom.  This separates, say, the quaternion elements inside the
        # order-8 subgroups of the octahedral group from the stand-alone
        # order-4 subgroups, matching the standard cyclic-subgroup partition.
        # Only even atoms walk: <-a> lies in +-<a>, of the same image order.
        label_order = list(image_order)
        for io_b, w in zip(image_order, walks):
            for g in w[:-1]:
                label_order[g // 2] = max(label_order[g // 2], io_b)
        # Labels: the scalar block +-1 carries S0, and S1, S2, ... rank the
        # other blocks by decreasing label order.
        orders = sorted(set(label_order[1:]), reverse=True)
        self.labels = tuple(f"S{r}" for r in range(len(orders) + 1))
        name = {o: f"S{r}" for r, o in enumerate(orders, start=1)}
        self.label = ["S0"] + [name[o] for o in label_order[1:]]
        # Eigenvalues zeta_base^e and zeta_base^-e, base = |G| / 2 = 12, 24 or 60.
        b = self.base = len(self.atoms)
        self.eigen = []
        for r, (a, d) in enumerate(zip(self.atoms, self.order)):
            e = next((e for e in range(b) if b // math.gcd(e, b) == d
                      and root_of_unity(e, b) + root_of_unity(-e, b) == a.trace()), None)
            if e is None:
                raise InternalInvariantError(
                    "no eigenvalues of the atom's order add up to its trace",
                    witness={"kind": kind, "atom": 2 * r, "order": d, "trace": a.trace()},
                )
            self.eigen.append((e, -e % b))
        if kind == "T":
            # The grading T -> T/Q8 = Z/3 is the character x -> 0, y -> 1 of
            # the table; TD keys encode their mu_6m part through it.  -1 lies
            # in Q8, so a block's two keys share a class.
            try:
                grading = extend_character(group, 3, [(x, 0), (y, 1)])
            except (CharacterConflictError, ConstraintError) as exc:
                raise InternalInvariantError(
                    "T table is not graded mod 3", witness={"kind": kind, "x": x, "y": y},
                ) from exc
            self.class3 = grading.exponents[::2]
            if self.class3.count(0) != 4:
                raise InternalInvariantError(
                    "quaternion subgroup of the T table is wrong",
                    witness={"kind": kind, "found": 2 * self.class3.count(0), "expected": 8},
                )


@lru_cache(maxsize=None)
def su2_table(kind: str) -> _SU2Table:
    return _SU2Table(kind)


# `count` scalar-subgroup cosets for the index engine that share one label,
# one rho exponent over 2m and one pair of eigenvalue exponents over N.
CosetData = namedtuple("CosetData", ("label", "count", "w2m", "a_exp", "b_exp"))


class DihedralModel:
    """Families DD and DC: scalars times a binary dihedral group.

    Key `(t * n + l) * K + s` is `x^t y^l mu_4m^(2s + dc*t)`, t in {0, 1},
    0 <= l < n: `w = 2` and `c(x^t y^l) = dc*t`, with `dc = 0` for DD.
    """

    is_dihedral = True
    labels = ("Lambda1", "Lambda2", "Lambda3")

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m, self.n = spec.m, spec.n
        self.K = 2 * spec.m
        self.size = 2 * spec.n * self.K
        self.c0 = spec.gamma_order  # 2n
        self._dc = 1 if spec.family == "DC" else 0
        self.N = math.lcm(4 * spec.m, 2 * spec.n)
        self._rot_step = self.N // (2 * spec.n)
        self._quarter = self.N // 4
        # eigenvalue exponents (over N) of mu_2m and of the x-part scalar
        self._s_step = self.N // self.K
        self._t_step = self._dc * self.N // (4 * spec.m)
        # x^2 = -1 = mu_2m^m; in DC the two mu_4m factors add one more step.
        self._flip = spec.m + self._dc

    def decode(self, key):
        """(t, l, s) of a key."""
        b, s = divmod(key, self.K)
        t, l = divmod(b, self.n)
        return t, l, s

    def encode(self, t: int, l: int, s: int) -> int:
        return (t * self.n + l) * self.K + s

    def label(self, key) -> str:
        """Lambda2 for a reflection, Lambda1 for a rotation with a nonzero
        scalar part, Lambda3 for a pure y^l."""
        t, _, s = self.decode(key)
        if t == 1:
            return "Lambda2"
        return "Lambda1" if s else "Lambda3"

    def generators(self):
        # DD: h, x, y; DC: h^2, hx, y
        return [self.encode(0, 0, 1), self.encode(1, 0, 0), self.encode(0, 1, 0)]

    def mult(self, A, B):
        # Block arithmetic on b = t * n + l, using y^n = -1 = mu_2m^m and
        # y^l x = x y^-l.
        K, n = self.K, self.n
        b1, s = divmod(A, K)
        b2, s2 = divmod(B, K)
        s += s2
        if b2 < n:  # times y^l2: l1 + l2, same t
            b = b1 + b2
            if b >= (n if b1 < n else 2 * n):
                b -= n
                s += self.m
        elif b1 < n:  # y^l1 x y^l2 = x y^(l2 - l1)
            b = b2 - b1
            if b < n:
                b += n
                s += self.m
        else:  # x y^l1 x y^l2 = x^2 y^(l2 - l1)
            b = b2 - b1
            s += self._flip
            if b < 0:
                b += n
                s += self.m
        return b * K + s % K

    def is_scalar(self, key) -> bool:
        return key < self.K

    def scalar_exp(self, key) -> int:
        return key % self.K

    def rho_exp_2m(self, key) -> int:
        t, _, s = self.decode(key)
        return (self.n * (2 * s + self._flip * t)) % self.K

    def eigen_exps(self, key):
        N = self.N
        b, s = divmod(key, self.K)
        if b < self.n:
            sc, e = s * self._s_step, b * self._rot_step
        else:
            sc, e = s * self._s_step + self._t_step, self._quarter
        return ((sc + e) % N, (sc - e) % N)

    def elements(self):
        return range(self.size)

    def to_matrix(self, key) -> UnitaryElement:
        # Each entry mu_4m^(2s + dc*t) zeta_2n^(+-l) is one root zeta_N^e.
        t, l, s = self.decode(key)
        N = self.N
        sc, e = (2 * s + self._dc * t) * (N // (4 * self.m)), l * (N // (2 * self.n))
        a, ai = root_of_unity(sc + e, N), root_of_unity(sc - e, N)
        zero = CyclotomicNumber.zero()
        if t == 0:
            rows = ((a, zero), (zero, ai))
        else:
            rows = ((zero, ai), (-a, zero))
        return UnitaryElement(rows, check=False)

    def reflection_coset(self) -> CosetData:
        """The n reflection cosets, all Lambda2, as one descriptor of count n."""
        base = self.encode(1, 0, 0)
        a, b = self.eigen_exps(base)
        return CosetData(self.label(base), self.n, self.rho_exp_2m(base), a, b)

    def validate_free_action(self):
        """Raise unless every coset acts freely; return `[reflection_coset()]`."""
        step = self._s_step
        # The coset of y^l holds an element with eigenvalue 1 iff step divides
        # l * rot_step; the least such l > 0 is step // gcd(step, rot_step).
        l = step // math.gcd(step, self._rot_step)
        if l < self.n:
            raise InternalInvariantError(
                f"rotation coset of y^{l} in {self.spec} contains a non-free element",
                witness={"spec": self.spec, "l": l},
            )
        for e in self.eigen_exps(self.encode(1, 0, 0)):
            if e % step == 0:
                raise InternalInvariantError(
                    f"reflection coset of {self.spec} contains a non-free element",
                    witness={"spec": self.spec, "exponent": e, "N": self.N},
                )
        return [self.reflection_coset()]


class PolyhedralModel:
    """Families TT, TD, OO, II: scalars times a binary polyhedral group.

    Key `r * K + s` is the atom `a_r` of block `r` times `mu_amb^k`,
    `amb = 2m*w`, `k = w*s + cls[r]`: `w = 3` and `cls = table.class3` in
    TD.  `mult` folds the sign of a product `-a_p` into the scalar.
    """

    is_dihedral = False

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m = spec.m
        self.table = su2_table(BINARY_KIND[spec.family])
        self.labels = self.table.labels
        self.K = 2 * spec.m
        self.size = len(self.table.atoms) * self.K
        self.c0 = spec.gamma_order
        if spec.family == "TD":
            self._w, self._cls = 3, self.table.class3
        else:
            self._w, self._cls = 1, [0] * len(self.table.atoms)
        self.amb = self.K * self._w
        self.N = math.lcm(self.amb, self.table.base)

    def decode(self, key):
        """(block, s) of a key."""
        return divmod(key, self.K)

    def encode(self, r: int, s: int) -> int:
        """Key of the atom `a_r` times mu_2m^s times mu_amb^cls[r]."""
        return r * self.K + s

    def label(self, key) -> str:
        """The label of the key's atom: S0 for the scalars."""
        return self.table.label[key // self.K]

    def _atom_exp(self, key):
        """(block, k): the key as atom times mu_amb^k."""
        r, s = self.decode(key)
        return r, self._w * s + self._cls[r]

    def generators(self):
        # mu_2m, then the atoms x and y times mu_amb^cls
        t = self.table
        return [self.encode(0, 1), self.encode(t.gen_x, 0), self.encode(t.gen_y, 0)]

    def mult(self, A, B):
        K, t = self.K, self.table
        r1, s = divmod(A, K)
        r2, s2 = divmod(B, K)
        p = t.mult[r1][r2]
        s += s2 + (self._cls[r1] + self._cls[r2]) // self._w
        if p & 1:
            s += self.m  # -1 = mu_2m^m
        return p // 2 * K + s % K

    def is_scalar(self, key) -> bool:
        return key < self.K

    def scalar_exp(self, key) -> int:
        return key % self.K

    def rho_exp_2m(self, key) -> int:
        return (self.c0 // self._w) * self._atom_exp(key)[1] % self.K

    def eigen_exps(self, key):
        r, k = self._atom_exp(key)
        N = self.N
        s = k * (N // self.amb)
        step = N // self.table.base
        e1, e2 = self.table.eigen[r]
        return ((s + e1 * step) % N, (s + e2 * step) % N)

    def elements(self):
        return range(self.size)

    def to_matrix(self, key) -> UnitaryElement:
        b, k = self._atom_exp(key)
        scal = root_of_unity(k, self.amb)
        (p, q), (r, s) = self.table.atoms[b].entries
        return UnitaryElement(
            ((scal * p, scal * q), (scal * r, scal * s)), check=False
        )

    def base_key(self, r: int):
        return self.encode(r, 0)

    def nonscalar_cosets(self):
        """The non-scalar atom pairs, one descriptor per shared (label, w2m, a <= b)."""
        counts = Counter((self.label(k), self.rho_exp_2m(k), *sorted(self.eigen_exps(k)))
                         for k in map(self.base_key, range(1, len(self.table.atoms))))
        return [CosetData(label, n, w2m, a, b) for (label, w2m, a, b), n in counts.items()]

    def validate_free_action(self):
        """Raise unless every coset acts freely; return `nonscalar_cosets()`."""
        step = self.N // self.K
        cosets = self.nonscalar_cosets()
        for data in cosets:
            if data.a_exp % step == 0 or data.b_exp % step == 0:
                raise InternalInvariantError(
                    f"{data.label} coset of {self.spec} contains a non-free element",
                    witness={"spec": self.spec, "label": data.label,
                             "exponents": (data.a_exp, data.b_exp), "N": self.N},
                )
        return cosets


def family_model(spec: GroupSpec):
    if spec.family in BINARY_KIND:
        return PolyhedralModel(spec)
    return DihedralModel(spec)
