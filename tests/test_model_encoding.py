"""Property tests of the dense integer keys of the family models:
`block * K + s`, with the scalars exactly block 0."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ellsw import _model
from ellsw.groups import FAMILIES, _block_steps, build_group
from ellsw.swindex import sweep_specs

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
            a, s = parts
            assert a == model.table.pos[a] and 0 <= s < 2 * spec.m
    assert set(model.elements()) == set(build_group(spec).keys)


@settings(max_examples=30, deadline=None)
@given(spec=specs, data=st.data())
def test_generator_steps_equal_mult_and_matrix_products(spec, data):
    model = _model.family_model(spec)
    gens = model.generators()
    steps = _block_steps(gens, model.mult, model.K, spec.order)
    for g, step in zip(gens, steps):
        assert step == [model.mult(a, g) for a in range(spec.order)]
        for a in data.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=3)):
            assert model.to_matrix(step[a]) == model.to_matrix(a) * model.to_matrix(g)


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
