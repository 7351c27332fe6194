"""Property tests of the dense integer keys of the family models:
`block * K + s`, with the scalars exactly block 0."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsw import _model
from ellsw.errors import InternalInvariantError
from ellsw.groups import FAMILIES, FiniteGroup, build_binary_polyhedral, build_group
from ellsw.swindex import sweep_specs

from cyclo_oracles import dihedral_matrix_by_products

# Valid specs with |G| <= 480, drawn family first so that each of the six
# families (TD: m = 3, 9, 15) is as likely as any other.
POOL = {f: [s for s in sweep_specs(480) if s.family == f] for f in FAMILIES}
specs = st.sampled_from(FAMILIES).flatmap(lambda f: st.sampled_from(POOL[f]))


@settings(max_examples=40, deadline=None)
@given(spec=specs)
def test_keys_round_trip_and_enumerate_the_closure(spec):
    model = _model.family_model(spec)
    for key in model.elements():
        parts = model.decode(key)
        assert model.encode(*parts) == key
        if model.is_dihedral:
            t, l, s = parts
            assert t in (0, 1) and 0 <= l < spec.n and 0 <= s < 2 * spec.m
        else:
            r, s = parts
            assert 0 <= r < len(model.table.atoms) and 0 <= s < 2 * spec.m
    assert set(model.elements()) == set(build_group(spec).keys)


@settings(max_examples=30, deadline=None)
@given(spec=specs, data=st.data())
def test_generators_move_whole_blocks_and_match_matrix_products(spec, data):
    # The rule behind the block closure: key b*K + s is key b*K times the
    # central scalar s, so a non-scalar generator rotates the whole block by
    # the shift of b*K g.
    model = _model.family_model(spec)
    K = model.K
    for g in model.generators():
        if g < K:
            continue
        for b in range(spec.order // K):
            t, shift = divmod(model.mult(b * K, g), K)
            for s in range(K):
                assert model.mult(b * K + s, g) == t * K + (s + shift) % K
        for a in data.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=3)):
            assert model.to_matrix(model.mult(a, g)) == model.to_matrix(a) * model.to_matrix(g)


def _closure_count(model, gens):
    """The order the library's closure finds for `gens`: the spec's order,
    or the count its wrong-order raise carries."""
    try:
        FiniteGroup.from_generators(gens, model.mult, model.to_matrix, model.size, model.K, model.spec)
    except InternalInvariantError as exc:
        assert exc.witness["expected"] == model.spec.order, exc.witness
        return exc.witness["found"]
    return model.spec.order


def _oracle_count(model, gens):
    """Keys reached from the identity by a plain per-key breadth-first search
    over `model.mult`, independent of the block structure."""
    seen = {0}
    queue = [0]
    for a in queue:
        for g in gens:
            p = model.mult(a, g)
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return len(seen)


@settings(max_examples=30, deadline=None)
@given(spec=specs)
def test_block_closure_counts_match_a_per_key_search(spec):
    model = _model.family_model(spec)
    gens = model.generators()
    scalar = next(g for g in gens if g < model.K)
    trials = [gens]  # the full set, each generator dropped, h replaced by h^2
    trials += [gens[:i] + gens[i + 1:] for i in range(len(gens))]
    trials.append([model.mult(scalar, scalar) if g == scalar else g for g in gens])
    for trial in trials:
        expect = _oracle_count(model, trial)
        assert _closure_count(model, trial) == expect, (spec, trial)
        if expect < spec.order:
            with patch.object(type(model), "generators", lambda self: trial):
                with pytest.raises(InternalInvariantError):
                    build_group(spec)
    assert _oracle_count(model, gens) == spec.order


@settings(max_examples=15, deadline=None)
@given(spec=specs)
def test_scalar_keys_are_the_first_block(spec):
    group = build_group(spec)
    scalars = [k for k in group.keys if group.to_matrix(k).is_scalar()]
    assert scalars == list(range(2 * spec.m)) == list(group.scalar_keys())


@settings(max_examples=30, deadline=None)
@given(spec=specs, data=st.data())
def test_mult_matches_matrix_products(spec, data):
    model = _model.family_model(spec)
    keys = st.integers(0, spec.order - 1)
    for a, b in data.draw(st.lists(st.tuples(keys, keys), min_size=1, max_size=4)):
        assert model.to_matrix(model.mult(a, b)) == model.to_matrix(a) * model.to_matrix(b)


def test_dihedral_matrices_equal_the_product_construction():
    # Each entry written as one root zeta_N^e equals the scalar times
    # zeta_2n^(+-l), in value and as stored, on every DD/DC key to |G| <= 200.
    def stored(rows):
        return [(x.order, x.num, x.den) for row in rows for x in row]

    keys = 0
    for spec in sweep_specs(200):
        if spec.family not in ("DD", "DC"):
            continue
        model = _model.family_model(spec)
        for key in model.elements():
            rows = model.to_matrix(key).entries
            oracle = dihedral_matrix_by_products(model, key)
            assert rows == oracle and stored(rows) == stored(oracle), (spec, key)
            keys += 1
    assert keys == 12456


def test_t_grading_matches_the_quaternion_cosets():
    # The grading T -> Z/3 built by hand on the 24 keys of the group, as a
    # reference for the character: Q8 is the keys of order 1, 2 or 4, and
    # for a key y of order 6 a key a has class 1 if y^-1 a lies in Q8 and
    # class 2 if y^-2 a does.
    group = build_binary_polyhedral("T")
    n, mult = group.order, group.mult
    order = [group.element_order(a) for a in range(n)]
    q8 = {a for a in range(n) if order[a] in (1, 2, 4)}
    assert len(q8) == 8
    y = order.index(6)
    y_inv = next(b for b in range(n) if mult(y, b) == 0)
    y_inv2 = mult(y_inv, y_inv)
    reference = []
    for a in range(n):
        if a in q8:
            reference.append(0)
        elif mult(y_inv, a) in q8:
            reference.append(1)
        else:
            assert mult(y_inv2, a) in q8
            reference.append(2)
    assert all(
        (reference[a] + reference[b] - reference[mult(a, b)]) % 3 == 0
        for a in range(n) for b in range(n)
    )
    # -1 lies in Q8, so each odd key grades like its even partner, and the
    # table, which keeps one class per sign pair, reads the even keys.
    assert reference[1::2] == reference[::2]
    t = _model.su2_table("T")
    assert t.class3 == reference[::2]
    assert t.class3[t.gen_x] == 0 and t.class3[t.gen_y] == 1
