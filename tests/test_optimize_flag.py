"""Internal checks are explicit raises, so they still fire under `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """\
import sys
from ellsw.errors import InternalInvariantError
from ellsw.groups import GroupSpec
if not sys.flags.optimize:
    sys.exit(2)
try:
    {call}
except InternalInvariantError as exc:
    sys.exit(0 if exc.witness == {witness} else 1)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "call, witness",
    [
        # The closure discovers the order: a model that lost a generator
        # (here y, then the scalar h) closes to a smaller group.
        (
            "from ellsw import _model; from ellsw.groups import GroupSpec, build_group; "
            "gens = _model.DihedralModel.generators; "
            "_model.DihedralModel.generators = lambda self: gens(self)[:2]; "
            "build_group(GroupSpec('DD', 3, 4))",
            "{'spec': GroupSpec('DD', 3, 4), 'found': 12, 'expected': 48}",
        ),
        (
            "from ellsw import _model; from ellsw.groups import GroupSpec, build_group; "
            "gens = _model.PolyhedralModel.generators; "
            "_model.PolyhedralModel.generators = lambda self: gens(self)[1:]; "
            "build_group(GroupSpec('TT', 5))",
            "{'spec': GroupSpec('TT', 5), 'found': 24, 'expected': 120}",
        ),
    ],
)
def test_internal_checks_fire_under_optimize(call, witness):
    _run_optimized(SCRIPT.format(call=call, witness=witness))


WITNESS_SCRIPT = """\
import sys
from ellsw import _model
from ellsw.errors import InternalInvariantError
from ellsw.groups import FiniteGroup, GroupSpec, build_group
if not sys.flags.optimize:
    sys.exit(2)
spec = GroupSpec("DD", 3, 4)
model = _model.family_model(spec)
h, x, y = model.generators()
try:
    {call}
except InternalInvariantError as exc:
    sys.exit(0 if exc.witness == {witness} and str(spec) in str(exc) else 1)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "call, witness",
    [
        # 49 keys do not split into blocks of K = 6.
        (
            "FiniteGroup.from_generators(model.generators(), model.mult, model.to_matrix, "
            "spec.order + 1, model.K, spec)",
            "{'spec': spec, 'order': spec.order + 1, 'block_size': model.K}",
        ),
        # A product of block 3 (y^3) and x that leaves range(|G|).
        (
            "mult = _model.DihedralModel.mult; "
            "_model.DihedralModel.mult = "
            "lambda self, a, b: self.size if a == 3 * self.K else mult(self, a, b); "
            "build_group(spec)",
            "{'spec': spec, 'block': 3, 'generator': x, 'product': model.size}",
        ),
        # Without y, h and x close to the 12 keys of blocks 0 and 4.
        (
            "FiniteGroup.from_generators([h, x], model.mult, model.to_matrix, "
            "spec.order, model.K, spec)",
            "{'spec': spec, 'found': 12, 'expected': 48}",
        ),
    ],
    ids=["block-split", "key-range", "wrong-order"],
)
def test_closure_raises_carry_a_witness_under_optimize(call, witness):
    _run_optimized(WITNESS_SCRIPT.format(call=call, witness=witness))


def test_coset_count_raise_carries_a_witness_under_optimize():
    # The section check with one of the 8 coset representatives dropped.
    call = (
        "from ellsw import bundle; reps = bundle._coset_representatives; "
        "bundle._coset_representatives = lambda g: reps(g)[1:]; "
        "bundle.section_equivariance_report(spec)"
    )
    witness = "{'spec': spec, 'found': 7, 'expected': 8}"
    _run_optimized(WITNESS_SCRIPT.format(call=call, witness=witness))


@pytest.mark.parametrize(
    "call, witness",
    [
        # A rotation coset made non-free by hand: the coset of y then holds
        # an element with eigenvalue 1.
        (
            "model._rot_step = model.N // model.K; model.validate_free_action()",
            "{'spec': spec, 'l': 1}",
        ),
        # The reflection x with eigenvalue exponents N/K and -N/K over N: then
        # mu_2m^-1 x has eigenvalue 1.
        (
            "model._quarter = model.N // model.K; model.validate_free_action()",
            "{'spec': spec, 'exponent': model.N // model.K, 'N': model.N}",
        ),
        # TT(5) with the first non-identity atom given eigenvalues 1, 1.
        (
            "spec = GroupSpec('TT', 5); model = _model.family_model(spec); "
            "a = model.table.pos_atoms[1]; model.table.eigen[a] = (0, 0); "
            "model.validate_free_action()",
            "{'spec': spec, 'label': model.table.label[a], 'exponents': (0, 0), 'N': model.N}",
        ),
    ],
    ids=["rotation", "reflection", "polyhedral"],
)
def test_free_action_raises_carry_a_witness_under_optimize(call, witness):
    _run_optimized(WITNESS_SCRIPT.format(call=call, witness=witness))


@pytest.mark.parametrize(
    "call, witness",
    [
        # d_E = 1/3: the three terms do not sum to an integer.
        (
            "from fractions import Fraction; from ellsw.swindex import _dimension; "
            "_dimension(spec, Fraction(1, 3), Fraction(0), Fraction(0))",
            "{'spec': spec, 'value': Fraction(1, 3)}",
        ),
        # d_E = 3: an integer, but odd.
        (
            "from fractions import Fraction; from ellsw.swindex import _dimension; "
            "_dimension(spec, Fraction(3), Fraction(0), Fraction(0))",
            "{'spec': spec, 'value': 3}",
        ),
        # TT(2), which validation rejects, has no leg solution: 3 + 2(b2 + b3)
        # is odd and so never 2 mod 6.
        (
            "GroupSpec.validate = lambda self: self; spec = GroupSpec('TT', 2); "
            "from ellsw.seifert import normalized_invariant; normalized_invariant(spec)",
            "{'spec': spec, 'solutions': []}",
        ),
        # The legs of DD(3,4) checked against an Euler ratio of 0.
        (
            "from ellsw import seifert; seifert._euler_ratio = lambda b, legs: (0, 1); "
            "seifert.normalized_invariant(spec)",
            "{'spec': spec, 'b': -1, 'legs': ((2, 1), (2, 1), (4, 3))}",
        ),
    ],
    ids=["dimension-fraction", "dimension-odd", "seifert-legs", "seifert-euler"],
)
def test_swdim_raises_carry_a_witness_under_optimize(call, witness):
    _run_optimized(WITNESS_SCRIPT.format(call=call, witness=witness))


MESSAGE_SCRIPT = """\
import sys
from ellsw.errors import InternalInvariantError
if not sys.flags.optimize:
    sys.exit(2)
try:
    {call}
except InternalInvariantError as exc:
    sys.exit(0 if exc.witness == {witness} and str(exc) == {message!r} else 1)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "call, witness, message",
    [
        # zeta_12^(3 * 4) = 1: an eigenvalue whose K-th power is 1.
        (
            "from ellsw.swindex import _coset_sum; _coset_sum(12, 4, 0, 0, 3, 1)",
            {"N": 12, "K": 4, "a_exp": 3, "b_exp": 1},
            "coset has a K-th-power eigenvalue of 1",
        ),
        # Exponents 1 and 13 name the same eigenvalue over N = 12.
        (
            "from ellsw.swindex import _coset_sum; _coset_sum(12, 4, 0, 0, 1, 13)",
            {"N": 12, "K": 4, "a_exp": 1, "b_exp": 13},
            "scalar coset fed to the non-scalar formula",
        ),
        # zeta_5 alone is not Galois stable.
        (
            "from ellsw.rootsum import RootSum; RootSum(5, {1: 1}).rational_value()",
            {"n": 5, "den": 1, "terms": 1},
            "root sum is not Galois stable; cannot certify rationality",
        ),
        # y^8 = 1, not -1: the octahedral y has order 8.
        (
            "from ellsw import groups; groups.BINARY['O'] = (48, 8); "
            "groups.build_binary_polyhedral('O')",
            {"kind": "O", "found": 8, "expected": 16},
            "O generator relations failed",
        ),
        # The tetrahedral generators close to 24 elements, not 48.
        (
            "from ellsw import groups; groups.BINARY['T'] = (48, 3); "
            "groups.build_binary_polyhedral('T')",
            {"kind": "T", "found": 24, "expected": 48},
            "T closure gave order 24, expected 48",
        ),
        # Phi_3 = (x^3 - 1) / (x - 1), with a remainder forced into the division.
        (
            "from ellsw import cyclo; div = cyclo._poly_pseudo_divmod; "
            "cyclo._poly_pseudo_divmod = lambda a, b: div(a, b)[:2] + ([1],); "
            "cyclo.cyclotomic_polynomial.cache_clear(); cyclo.cyclotomic_polynomial(3)",
            {"n": 3, "p": 3, "scale": 1, "remainder": [1]},
            "Phi_1(x^3) / Phi_1(x) is not an integer polynomial",
        ),
    ],
    ids=[
        "coset-root",
        "coset-scalar",
        "rational-value",
        "binary-relations",
        "binary-order",
        "cyclotomic-division",
    ],
)
def test_arithmetic_raises_carry_a_witness_under_optimize(call, witness, message):
    _run_optimized(MESSAGE_SCRIPT.format(call=call, witness=witness, message=message))


@pytest.mark.parametrize(
    "call, witness, message",
    [
        # j has order 4; told its eigenvalues have order 3, j^3 = -j is not I.
        (
            "from ellsw import groups; groups.eigen_exponents = lambda g: (3, 0, 1); "
            "j = groups.quaternion_matrix(0, 0, 1, 0); j.matrix_order()",
            "{'matrix': j, 'eigen_order': 3}",
            "matrix is not of finite order",
        ),
        # diag(2, 1): trace 3 and det 2 are not sums and products of roots of unity.
        (
            "from ellsw.groups import UnitaryElement, eigen_exponents; "
            "eigen_exponents(UnitaryElement(((2, 0), (0, 1)), check=False))",
            {"trace": 3, "det": 2},
            "no root-of-unity eigenvalues found",
        ),
        # The octahedral y has order 8, over a bound of 4.
        (
            "from ellsw.groups import _binary_generators, _matrix_group; "
            "x, y = _binary_generators('O'); _matrix_group([y], 4)",
            "{'bound': 4, 'generators': [y]}",
            "closure exceeded the order bound 4",
        ),
    ],
    ids=["matrix-order", "eigen-exponents", "order-bound"],
)
def test_matrix_raises_carry_a_witness_under_optimize(call, witness, message):
    _run_optimized(MESSAGE_SCRIPT.format(call=call, witness=witness, message=message))


@pytest.mark.parametrize(
    "call, witness, message",
    [
        (
            "from ellsw.seifert import SeifertInvariant; SeifertInvariant(-1, ((2, 1), (2, 1)))",
            {"legs": ((2, 1), (2, 1))},
            "expected exactly three exceptional fibers",
        ),
        # b_3 = 2 and a_3 = 4 share the factor 2.
        (
            "from ellsw.seifert import SeifertInvariant; "
            "SeifertInvariant(-1, ((2, 1), (2, 1), (4, 2)))",
            {"legs": ((2, 1), (2, 1), (4, 2)), "leg": (4, 2)},
            "leg (4,2) is not normalized",
        ),
    ],
    ids=["fiber-count", "leg-normalized"],
)
def test_seifert_raises_carry_a_witness_under_optimize(call, witness, message):
    _run_optimized(MESSAGE_SCRIPT.format(call=call, witness=witness, message=message))


# DD(3,4) has generators h, x, y = 1, 24, 6.
DD34 = "from ellsw.groups import GroupSpec, build_group; group = build_group(GroupSpec('DD', 3, 4)); "


@pytest.mark.parametrize(
    "call, witness, message",
    [
        # {0, 2} is not a subgroup: the scalar keys 0 and 4 (mu_6^4, the
        # inverse of mu_6^2), the first and third coset representatives,
        # both translate it onto key 0.
        (
            DD34 + "group.commutator_subgroup = lambda: {0, 2}; group.abelianization()",
            {"key": 0, "cosets": (0, 2)},
            "key 0 lands in two cosets of [G,G]",
        ),
        # {0, x}: its translates partition G, but x {0, x} is not {0, x} x.
        (
            DD34 + "group.commutator_subgroup = lambda: {0, 24}; group.abelianization()",
            {"generator": 24},
            "[G,G] is not normal: [G,G] g lands in two cosets",
        ),
        # G/{0} is G itself: x y and y x are different keys.
        (
            DD34 + "group.commutator_subgroup = lambda: {0}; group.abelianization()",
            {"generators": (24, 6), "cosets": (30, 45)},
            "G/[G,G] is not abelian",
        ),
        (
            "from ellsw.groups import AbelianInvariants; AbelianInvariants((4, 6))",
            {"factors": (4, 6)},
            "invariant factors must form a divisor chain",
        ),
        (
            "from ellsw.groups import AbelianInvariants; AbelianInvariants((1, 2))",
            {"factors": (1, 2)},
            "invariant factors must exceed 1",
        ),
    ],
    ids=["coset-overlap", "not-normal", "not-abelian", "divisor-chain", "trivial-factor"],
)
def test_abelianization_raises_carry_a_witness_under_optimize(call, witness, message):
    _run_optimized(MESSAGE_SCRIPT.format(call=call, witness=witness, message=message))


PATCH_BUILD = (
    "from ellsw import _model; build = _model.build_binary_polyhedral; "
    "_model.build_binary_polyhedral = lambda kind: (lambda g: setattr(g, {!r}, {}) or g)(build(kind)); "
)


@pytest.mark.parametrize(
    "call, witness, message",
    [
        # An O table whose identity is said to be atom 1: rank 0 is atom 0.
        (
            PATCH_BUILD.format("identity", "1") + "_model._SU2Table('O')",
            {"kind": "O", "identity": 1, "rank0": 0},
            "the identity atom must have rank 0",
        ),
        # Every atom given eigenvalues of order 7; the identity atom has order 1.
        (
            "from ellsw import _model; _model.eigen_exponents = lambda a: (7, 0, 0); "
            "_model._SU2Table('O')",
            {"kind": "O", "atom": 0, "order": 1, "eigen_order": 7},
            "atom eigenvalues disagree with the table order",
        ),
        # A T table whose order-6 generator y was replaced by x: x -> 0 and
        # x -> 1 conflict.
        (
            "from ellsw.groups import build_binary_polyhedral; x = build_binary_polyhedral('T').gens[0]; "
            + PATCH_BUILD.format("gens", "g.gens[:1] * 2") + "_model._SU2Table('T')",
            "{'kind': 'T', 'x': x, 'y': x}",
            "T table is not graded mod 3",
        ),
        # A grading that puts all 24 atoms of T in the quaternion subgroup.
        (
            "from types import SimpleNamespace; from ellsw import _model; "
            "_model.extend_character = lambda *args: SimpleNamespace(exponents=[0] * 24); "
            "_model._SU2Table('T')",
            {"kind": "T", "found": 24, "expected": 8},
            "quaternion subgroup of the T table is wrong",
        ),
        # In TD(3) the identity atom has class 0, so mu_18^1 times it is not
        # in the group.
        (
            "from ellsw import _model; from ellsw.groups import GroupSpec; "
            "spec = GroupSpec('TD', 3); _model.family_model(spec)._key(0, 1)",
            "{'spec': spec, 'atom': 0, 'k': 1}",
            "element of GroupSpec(family='TD', m=3, n=0) off the index-3 grading",
        ),
    ],
    ids=["identity-rank", "atom-eigen-order", "t-grading", "quaternion-count", "td-grading"],
)
def test_model_raises_carry_a_witness_under_optimize(call, witness, message):
    _run_optimized(MESSAGE_SCRIPT.format(call=call, witness=witness, message=message))


BUNDLE_SCRIPT = """\
import sys
from ellsw import bundle
from ellsw.errors import CharacterConflictError, ConstraintError
from ellsw.groups import GroupSpec, build_group
if not sys.flags.optimize:
    sys.exit(2)
d2 = build_group(GroupSpec("DD", 1, 2))
_, x, y = d2.gens
{body}
sys.exit(1)
"""


@pytest.mark.parametrize(
    "body",
    [
        # x^2 = y^2 = -1 forces rho(x)^2 = rho(y)^2; i and 1 disagree.
        "try:\n"
        "    bundle.extend_character(d2, 4, [(x, 1), (y, 0)])\n"
        "except CharacterConflictError as exc:\n"
        "    sys.exit(0 if exc.witness is not None else 1)",
        # x alone generates a cyclic subgroup of order 4.
        "try:\n"
        "    bundle.extend_character(d2, 2, [(x, 1)])\n"
        "except ConstraintError as exc:\n"
        "    sys.exit(0 if 'generate' in str(exc) else 1)",
        # The trivial character on DD(1,3) is consistent, but f(xz) = -f(z).
        "from character_checks import trivial_rho\n"
        "bundle.generator_table = trivial_rho(bundle.generator_table)\n"
        "report = bundle.section_equivariance_report(GroupSpec('DD', 1, 3))\n"
        "none = [k for k, v in report['scalars'].items() if v is None]\n"
        "sys.exit(0 if not report['ok'] and len(none) == 1 else 1)",
    ],
    ids=["conflict", "not-generating", "section-fail"],
)
def test_bundle_checks_fire_under_optimize(body):
    _run_optimized(BUNDLE_SCRIPT.format(body=body))


def _run_optimized(script):
    env = dict(os.environ)
    paths = [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
