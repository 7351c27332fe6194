"""Internal checks are explicit raises, so they still fire under `python -O`.

Each case in `CASES` forces one check, by its inputs or by the patches it
enters through `patch`, and returns the call, then the error type, witness
and exact message that the call must raise (`section-fail` returns the
report values instead).  pytest runs every case in process, and once more
in a `python -O` child that runs this file.  `failure` holds no `assert`,
since `-O` strips those from this module too.
"""

import ast
import os
import subprocess
import sys
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from character_checks import labels_by_key_mod_3, trivial_rho
from ellsw import _model, bundle, cyclo, groups, seifert, swindex
from ellsw.errors import CharacterConflictError, ConstraintError, DomainError, InternalInvariantError
from ellsw.groups import AbelianInvariants, FiniteGroup, GroupSpec, UnitaryElement, build_group
from ellsw.rootsum import RootSum
from ellsw.seifert import SeifertInvariant
from ellsw.swindex import _coset_sum, _dimension

SRC = Path(__file__).resolve().parents[1] / "src"

# DD(3,4) has generators h, x, y = 1, 24, 6.
DD34 = GroupSpec("DD", 3, 4)
TT5 = GroupSpec("TT", 5)

CASES = {}


def case(fn):
    CASES[fn.__name__.replace("_", "-")] = fn
    return fn


def failure(case):
    """None when `case` behaves, else what it did instead."""
    with ExitStack() as stack:
        call, *expected = case(lambda *args: stack.enter_context(mock.patch.object(*args)))
        try:
            outcome = [call()]
        except Exception as exc:
            outcome = [type(exc), getattr(exc, "witness", None), str(exc)]
    return None if outcome == expected else f"got {outcome!r}, expected {expected!r}"


@case
def dihedral_lost_generator(patch):
    # The closure discovers the order: a model without y closes to 12 keys.
    gens = _model.DihedralModel.generators
    patch(_model.DihedralModel, "generators", lambda self: gens(self)[:2])
    return (lambda: build_group(DD34), InternalInvariantError,
            {"spec": DD34, "found": 12, "expected": 48},
            f"closure gave order 12, expected 48 for {DD34}")


@case
def polyhedral_lost_generator(patch):
    # A model without the scalar h closes to the 24 atoms alone.
    gens = _model.PolyhedralModel.generators
    patch(_model.PolyhedralModel, "generators", lambda self: gens(self)[1:])
    return (lambda: build_group(TT5), InternalInvariantError,
            {"spec": TT5, "found": 24, "expected": 120},
            f"closure gave order 24, expected 120 for {TT5}")


@case
def block_split(patch):
    # 49 keys do not split into blocks of K = 6.
    model = _model.family_model(DD34)
    gens = model.generators()
    return (lambda: FiniteGroup.from_generators(gens, model.mult, model.to_matrix, 49, 6, DD34),
            InternalInvariantError, {"spec": DD34, "order": 49, "block_size": 6},
            f"49 keys of {DD34} do not split into blocks of 6")


@case
def key_range(patch):
    # A product of block 3 (y^3) and x that leaves range(|G|).
    mult = _model.DihedralModel.mult
    patch(_model.DihedralModel, "mult",
          lambda self, a, b: self.size if a == 3 * self.K else mult(self, a, b))
    return (lambda: build_group(DD34), InternalInvariantError,
            {"spec": DD34, "block": 3, "generator": 24, "product": 48},
            f"product 48 of block 3 and generator 24 left the keys of {DD34}")


@case
def wrong_order(patch):
    # Without y, h and x close to the 12 keys of blocks 0 and 4.
    model = _model.family_model(DD34)
    gens = model.generators()[:2]
    return (lambda: FiniteGroup.from_generators(gens, model.mult, model.to_matrix, 48, 6, DD34),
            InternalInvariantError, {"spec": DD34, "found": 12, "expected": 48},
            f"closure gave order 12, expected 48 for {DD34}")


@case
def class_orbit(patch):
    # 1 x read as 1: conjugating the identity by x then lands on x^-1, so
    # block 0 keeps one key while the other blocks of its orbit gain two.
    group = build_group(DD34)
    mult = group.mult
    patch(group, "mult", lambda a, b: 0 if (a, b) == (0, 24) else mult(a, b))
    return (group.class_count, InternalInvariantError,
            {"spec": DD34, "block": 0, "counts": [1, 2]},
            f"conjugacy orbit of block 0 in {DD34} splits unevenly")


@case
def rotation(patch):
    # A rotation coset made non-free by hand: the coset of y then holds an
    # element with eigenvalue 1.
    model = _model.family_model(DD34)
    patch(model, "_rot_step", model.N // model.K)
    return (model.validate_free_action, InternalInvariantError, {"spec": DD34, "l": 1},
            f"rotation coset of y^1 in {DD34} contains a non-free element")


@case
def reflection(patch):
    # The reflection x with eigenvalue exponents N/K and -N/K over N = 24:
    # then mu_2m^-1 x has eigenvalue 1.
    model = _model.family_model(DD34)
    patch(model, "_quarter", model.N // model.K)
    return (model.validate_free_action, InternalInvariantError,
            {"spec": DD34, "exponent": 4, "N": 24},
            f"reflection coset of {DD34} contains a non-free element")


@case
def polyhedral(patch):
    # TT(5) with block 1, the first outside +-1 and labelled S2, given eigenvalues 1, 1.
    model = _model.family_model(TT5)
    eigen = list(model.table.eigen)
    eigen[1] = (0, 0)
    patch(model.table, "eigen", eigen)
    return (model.validate_free_action, InternalInvariantError,
            {"spec": TT5, "label": "S2", "exponents": (0, 0), "N": 60},
            f"S2 coset of {TT5} contains a non-free element")


@case
def dimension_fraction(patch):
    # d_E = 1/3: the three terms do not sum to an integer.
    return (lambda: _dimension(DD34, Fraction(1, 3), Fraction(0), Fraction(0)),
            InternalInvariantError, {"spec": DD34, "value": Fraction(1, 3)},
            f"dimension for {DD34} is not an integer: 1/3")


@case
def dimension_odd(patch):
    # d_E = 3: an integer, but odd.
    return (lambda: _dimension(DD34, Fraction(3), Fraction(0), Fraction(0)),
            InternalInvariantError, {"spec": DD34, "value": 3},
            f"dimension for {DD34} is not an even integer >= 2: 3")


@case
def seifert_legs(patch):
    # TT(2), which validation rejects, has no leg solution: 3 + 2(b2 + b3)
    # is odd and so never 2 mod 6.
    patch(GroupSpec, "validate", lambda self: self)
    spec = GroupSpec("TT", 2)
    return (lambda: seifert.normalized_invariant(spec), InternalInvariantError,
            {"spec": spec, "solutions": []}, f"leg congruence for {spec} has 0 solutions")


@case
def seifert_euler(patch):
    # The legs of DD(3,4) checked against an Euler ratio of 0.
    patch(seifert, "_euler_ratio", lambda b, legs: (0, 1))
    return (lambda: seifert.normalized_invariant(DD34), InternalInvariantError,
            {"spec": DD34, "b": -1, "legs": ((2, 1), (2, 1), (4, 3))},
            f"Seifert data for {DD34} misses the Euler number")


@case
def fiber_count(patch):
    return (lambda: SeifertInvariant(-1, ((2, 1), (2, 1))), InternalInvariantError,
            {"legs": ((2, 1), (2, 1))}, "expected exactly three exceptional fibers")


@case
def leg_normalized(patch):
    # b_3 = 2 and a_3 = 4 share the factor 2.
    legs = ((2, 1), (2, 1), (4, 2))
    return (lambda: SeifertInvariant(-1, legs), InternalInvariantError,
            {"legs": legs, "leg": (4, 2)}, "leg (4,2) is not normalized")


@case
def coset_scalar(patch):
    # Exponents 1 and 13 name the same eigenvalue over N = 12.
    return (lambda: _coset_sum(12, 4, 0, 0, 1, 13, 1), InternalInvariantError,
            {"N": 12, "K": 4, "a_exp": 1, "b_exp": 13},
            "scalar coset fed to the non-scalar formula")


@case
def split_subgroup(patch):
    # Labels by key mod 3 split <mu_6>, key 1 of order 6, where chi is not 0.
    patch(_model, "family_model", labels_by_key_mod_3(_model.family_model))
    return (lambda: swindex.s_breakdown_by_elements(DD34), InternalInvariantError,
            {"spec": DD34, "key": 1, "order": 6},
            f"cyclic subgroup of key 1 in {DD34} spans two labels where chi is not 0")


@case
def trivial_rho_fixed_point(patch):
    # diag(1, -1), of trace 0 and determinant -1, fixes a line; where rho = 1,
    # chi checks freeness alone.
    one = cyclo.CyclotomicNumber.one()
    return (lambda: swindex.chi(one - 1, -one, one, {}), DomainError, None,
            "element has eigenvalue 1; the action is not free")


@case
def rational_value(patch):
    # zeta_5 alone is not Galois stable.
    return (RootSum.monomial(5, 1).rational_value, InternalInvariantError,
            {"n": 5, "den": 1, "terms": 1},
            "root sum is not Galois stable; cannot certify rationality")


@case
def binary_relations(patch):
    # y^8 = 1, not -1: the octahedral y has order 8.
    patch(groups, "BINARY", {**groups.BINARY, "O": (48, 8)})
    return (lambda: groups.build_binary_polyhedral("O"), InternalInvariantError,
            {"kind": "O", "found": 8, "expected": 16}, "O generator relations failed")


@case
def binary_order(patch):
    # The tetrahedral generators close to 24 elements, not 48.
    patch(groups, "BINARY", {**groups.BINARY, "T": (48, 3)})
    return (lambda: groups.build_binary_polyhedral("T"), InternalInvariantError,
            {"kind": "T", "found": 24, "expected": 48}, "T closure gave order 24, expected 48")


@case
def cyclotomic_division(patch):
    # Told that 5 = 2 * (5 // 2), Phi_5 divides x^5 - 1 by x^2 - 1.
    patch(cyclo, "factorize", lambda n: {2: 1})
    cyclo.cyclotomic_polynomial.cache_clear()
    return (lambda: cyclo.cyclotomic_polynomial(5), InternalInvariantError,
            {"n": 5, "d": 2}, "x^2 - 1 leaves a remainder in Phi_5")


@case
def matrix_order(patch):
    # j has order 4; told its eigenvalues have order 3, j^3 = -j is not I.
    patch(groups, "eigen_exponents", lambda g: (3, 0, 1))
    j = groups.quaternion_matrix(0, 0, 1, 0)
    return (j.matrix_order, InternalInvariantError, {"matrix": j, "eigen_order": 3},
            "matrix is not of finite order")


@case
def eigen_exponents(patch):
    # diag(2, 1): trace 3 and det 2 are not sums and products of roots of unity.
    g = UnitaryElement(((2, 0), (0, 1)), check=False)
    return (lambda: groups.eigen_exponents(g), InternalInvariantError,
            {"trace": 3, "det": 2}, "no root-of-unity eigenvalues found")


@case
def order_bound(patch):
    # The octahedral y has order 8, over a bound of 4.
    _, y = groups._binary_generators("O")
    return (lambda: groups._matrix_group([y], 4), InternalInvariantError,
            {"bound": 4, "generators": [y]}, "closure exceeded the order bound 4")


@case
def scalar_block(patch):
    # i I generates {I, i I, -I, -i I}; the sign pairs put i I at key 2,
    # outside the block {I, -I} of the scalars.
    i = cyclo.root_of_unity(1, 4)
    g = UnitaryElement(((i, 0), (0, i)), check=False)
    return (lambda: groups._matrix_group([g], 8), InternalInvariantError,
            {"key": 2, "matrix": g, "block_size": 2}, "scalar key 2 lies outside block 0 of size 2")


def _abelianization(patch, masks):
    """DD(3,4)'s abelianization, with the block masks of [G,G] replaced by
    `masks`.  DD(3,4) has K = 6 and 8 blocks; [G,G] = <y^2> marks keys 0
    and 3 (the scalars +-1) in block 0 and in block 2 (y^2 times them)."""
    group = build_group(DD34)
    patch(group, "_commutator_masks", lambda ginv: masks)
    return group.abelianization


@case
def not_normal(patch):
    # <x> = {+-1, +-x} in blocks 0 and 4: y^-1 x y lands in block 6.
    return (_abelianization(patch, [0b1001, 0, 0, 0, 0b1001, 0, 0, 0]), InternalInvariantError,
            {"spec": DD34, "block": 6}, f"conjugation moves [G,G] of {DD34} into block 6")


@case
def not_abelian(patch):
    # G/{identity} is G itself: the commutator of x and y is y^2, key 12.
    return (_abelianization(patch, [1] + [0] * 7), InternalInvariantError,
            {"spec": DD34, "generators": (24, 6), "commutator": 12},
            f"G/[G,G] of {DD34} is not abelian")


@case
def lagrange(patch):
    # [G,G] plus mu^2 marks 3 scalars, so c = 2; with e = 2 for x and for y
    # the quotient has 8 elements, and the 5 marked keys are no subgroup.
    return (_abelianization(patch, [0b1101, 0, 0b1001, 0, 0, 0, 0, 0]), InternalInvariantError,
            {"spec": DD34, "quotient": 8, "subgroup": 5, "order": 48},
            "|G/[G,G]| = 8 and |[G,G]| = 5 miss |G| = 48")


@case
def order_maxsize(patch):
    # |G| = 8 (2^61 + 1) has no range(|G|) of its keys that len() can take.
    spec = GroupSpec("DD", 2**61 + 1, 2)
    return (lambda: build_group(spec), ConstraintError, None,
            f"|G| = {spec.order} of {spec} exceeds {sys.maxsize}")


@case
def block_bound(patch):
    # |G| = 8 (10^18 + 1) fits in sys.maxsize, but |G| bits of block masks
    # do not fit in memory.
    spec = GroupSpec("DD", 10**18 + 1, 2)
    return (lambda: build_group(spec), ConstraintError, None,
            f"{spec} has {8 * 10**18 + 8} keys in 4 blocks; the closure takes "
            f"at most {groups.KEY_BOUND} keys and {groups.BLOCK_BOUND} blocks")


@case
def divisor_chain(patch):
    return (lambda: AbelianInvariants((4, 6)), InternalInvariantError, {"factors": (4, 6)},
            "invariant factors must form a divisor chain")


@case
def trivial_factor(patch):
    return (lambda: AbelianInvariants((1, 2)), InternalInvariantError, {"factors": (1, 2)},
            "invariant factors must exceed 1")


@case
def atom_eigen_trace(patch):
    # Every root read as 0, so no pair adds up to the identity atom's trace 2.
    patch(_model, "root_of_unity", lambda k, n: cyclo.CyclotomicNumber.zero())
    return (lambda: _model._SU2Table("O"), InternalInvariantError,
            {"kind": "O", "atom": 0, "order": 1, "trace": 2},
            "no eigenvalues of the atom's order add up to its trace")


@case
def t_grading(patch):
    # A T table whose order-6 generator y was replaced by x: x -> 0 and
    # x -> 1 conflict.
    group = groups.build_binary_polyhedral("T")
    x = group.gens[0]
    patch(group, "gens", [x, x])
    patch(_model, "build_binary_polyhedral", lambda kind: group)
    return (lambda: _model._SU2Table("T"), InternalInvariantError,
            {"kind": "T", "x": x, "y": x}, "T table is not graded mod 3")


@case
def quaternion_count(patch):
    # A grading that puts all 24 atoms of T in the quaternion subgroup.
    patch(_model, "extend_character", lambda *args: SimpleNamespace(exponents=[0] * 24))
    return (lambda: _model._SU2Table("T"), InternalInvariantError,
            {"kind": "T", "found": 24, "expected": 8},
            "quaternion subgroup of the T table is wrong")


@case
def conflict(patch):
    # x^2 = y^2 = -1 forces rho(x)^2 = rho(y)^2; i and 1 disagree on key 1.
    d2 = build_group(GroupSpec("DD", 1, 2))
    _, x, y = d2.gens
    return (lambda: bundle.extend_character(d2, 4, [(x, 1), (y, 0)]), CharacterConflictError,
            1, "assignments force zeta_4^2 and zeta_4^0 on the same element")


@case
def not_generating(patch):
    # x alone generates a cyclic subgroup of order 4.
    d2 = build_group(GroupSpec("DD", 1, 2))
    return (lambda: bundle.extend_character(d2, 2, [(d2.gens[1], 1)]), ConstraintError,
            None, "assigned elements do not generate the group")


@case
def section_fail(patch):
    # The trivial character on DD(1,3) is consistent, but f(xz) = -f(z):
    # the report fails on x (key 6) alone.
    patch(bundle, "generator_table", trivial_rho(bundle.generator_table))

    def call():
        report = bundle.section_equivariance_report(GroupSpec("DD", 1, 3))
        rows = zip(report["generators"], report["holds"])
        return report["ok"], [g for (_, g, _), ok in rows if not ok]

    return call, (False, [6])


@pytest.mark.parametrize("name", CASES)
def test_internal_check_fires(name):
    assert failure(CASES[name]) is None


def test_every_internal_check_fires_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _optimize_dependent(tree):
    """(line, what) for each construct that behaves otherwise under `-O`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"
        elif isinstance(node, ast.Attribute) and node.attr == "flags":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                yield node.lineno, "sys.flags"


def test_no_library_code_depends_on_optimize():
    paths = sorted((SRC / "ellsw").glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in _optimize_dependent(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


if __name__ == "__main__":
    failed = [f"{name}: {what}" for name, c in CASES.items() if (what := failure(c))]
    if not sys.flags.optimize:
        failed.insert(0, "not run under python -O")
    sys.exit("\n".join(failed) or None)
