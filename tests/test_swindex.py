import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellsw import _model, swindex
from ellsw.bundle import rho
from ellsw.cyclo import CyclotomicNumber, root_of_unity
from ellsw.errors import DomainError, InternalInvariantError
from ellsw.groups import BINARY_KIND, FAMILIES, GroupSpec, UnitaryElement, build_group, eigen_angles
from ellsw.swindex import (
    chi,
    closed_form_d_E,
    d_E,
    s_breakdown,
    s_breakdown_by_elements,
    singular_point_contribution,
    sum_chi_by_elements,
    sw_dimension_report,
    sweep_specs,
)

from character_checks import labels_by_key_mod_3

ONE = CyclotomicNumber.one()


def test_chi_hand_values():
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    # eigenvalues (-1, -1), rho = -1: 2(-2)/((2)(2)) = -1
    assert chi(minus, -ONE) == -1
    # rho(-I) = 1 kills the numerator
    assert chi(minus, ONE).is_zero()


def test_chi_vanishes_on_trivial_rho_rotation():
    spec = GroupSpec("DD", 3, 2)
    group = build_group(spec)
    y = group.gens[2]
    assert chi(group.to_matrix(y), ONE).is_zero()


def test_chi_domain_errors():
    ident = UnitaryElement(((1, 0), (0, 1)), check=False)
    with pytest.raises(DomainError):
        chi(ident, ONE)
    fixes_line = UnitaryElement(((1, 0), (0, -1)), check=False)
    with pytest.raises(DomainError):
        chi(fixes_line, -ONE)


def _chi_by_eigenvalues(g, rho_value):
    """The cone-point term as the paper writes it, from the eigenvalues."""
    lam1, lam2 = eigen_angles(g)
    return (rho_value - ONE) * 2 * ((ONE - lam1.conjugate()) * (ONE - lam2.conjugate())).inverse()


@pytest.mark.parametrize(
    "spec",
    [GroupSpec("DD", 3, 4), GroupSpec("DC", 2, 5), GroupSpec("TT", 5), GroupSpec("TD", 3),
     GroupSpec("OO", 1), GroupSpec("II", 1)],
    ids=lambda spec: f"{spec.family}-{spec.m}-{spec.n}",
)
def test_chi_matches_the_eigenvalue_formula(spec):
    group = build_group(spec)
    character = rho(spec, group)
    for k in group.keys[1:]:
        g, value = group.to_matrix(k), character.value(k)
        assert chi(g, value) == _chi_by_eigenvalues(g, value), k


def test_singular_point_contribution_examples():
    assert singular_point_contribution(GroupSpec("DD", 5, 2)) == Fraction(2, 5)
    assert singular_point_contribution(GroupSpec("OO", 1)) == 0
    assert singular_point_contribution(GroupSpec("II", 7)) == Fraction(-10, 7)


# The eight icosahedral and four octahedral records, frozen from the case
# tables the dimension formula was checked against.
OCTA_RECORDS = {
    1: (0, 0, 0, 0),
    5: (16, -240, -160, 0),
    7: (20, 84, -224, -168),
    11: (36, 132, 0, -264),
}
ICOSA_RECORDS = {
    1: (0, 0, 0, 0),
    7: (32, -672, -560, 0),
    11: (64, -1584, -880, 0),
    13: (128, -1248, -1040, 0),
    17: (156, -816, 0, -1020),
    19: (308, 912, -1520, -1140),
    23: (420, 0, 0, -1380),
    29: (108, 1392, 0, -1740),
}


@pytest.mark.parametrize("m,record", sorted(OCTA_RECORDS.items()))
def test_octahedral_breakdown_records(m, record):
    got = s_breakdown(GroupSpec("OO", m))
    assert tuple(got[k] for k in ("S0", "S1", "S2", "S3")) == record


@pytest.mark.parametrize("m,record", sorted(ICOSA_RECORDS.items()))
def test_icosahedral_breakdown_records(m, record):
    got = s_breakdown(GroupSpec("II", m))
    assert tuple(got[k] for k in ("S0", "S1", "S2", "S3")) == record


def test_tetrahedral_breakdowns():
    assert tuple(s_breakdown(GroupSpec("TT", 1)).values()) == (0, 0, 0)
    assert tuple(s_breakdown(GroupSpec("TT", 5)).values()) == (12, 0, -60)
    assert tuple(s_breakdown(GroupSpec("TD", 3)).values()) == (0, -96, 0)


def test_dimension_examples():
    assert d_E(GroupSpec("TT", 1)) == 8
    assert d_E(GroupSpec("II", 7)) == 4
    assert d_E(GroupSpec("OO", 13)) == 2
    assert d_E(GroupSpec("OO", 1)) == 14
    assert d_E(GroupSpec("II", 1)) == 32


@pytest.mark.parametrize(
    "shift, message",
    [(Fraction(1, 3), "not an integer: 13/3"), (Fraction(1), "even integer >= 2: 5"),
     (Fraction(-4), "even integer >= 2: 0")],
    ids=["non-integer", "odd", "below-two"],
)
def test_dimension_checks_fire(monkeypatch, shift, message):
    # DD(1, 2) has d(E) = 4; moving -K.c1(E) by `shift` must be refused by
    # both d_E and the report, which share one check.
    from ellsw import swindex

    spec = GroupSpec("DD", 1, 2)
    assert d_E(spec) == 4
    pairing = swindex.minus_K_dot_c1E
    monkeypatch.setattr(swindex, "minus_K_dot_c1E", lambda s: pairing(s) + shift)
    for compute in (d_E, sw_dimension_report):
        with pytest.raises(InternalInvariantError, match=message):
            compute(spec)


def test_closed_form_examples():
    assert closed_form_d_E(GroupSpec("DD", 3, 8)) == 4
    assert closed_form_d_E(GroupSpec("DD", 3, 7)) == 4
    assert closed_form_d_E(GroupSpec("DD", 7, 2)) == 2
    assert closed_form_d_E(GroupSpec("II", 7)) == 4


SMALL_SPECS = [
    GroupSpec("DD", 1, 2), GroupSpec("DD", 1, 3), GroupSpec("DD", 1, 6),
    GroupSpec("DD", 3, 2), GroupSpec("DD", 3, 4), GroupSpec("DD", 5, 2),
    GroupSpec("DD", 5, 3), GroupSpec("DD", 7, 2), GroupSpec("DC", 2, 3),
    GroupSpec("DC", 2, 5), GroupSpec("DC", 4, 3), GroupSpec("TT", 1),
    GroupSpec("TD", 3), GroupSpec("OO", 1), GroupSpec("OO", 7), GroupSpec("OO", 11),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_engine_matches_per_element_enumeration(spec):
    # Independent oracle: matrices, extended character, cyclotomic division.
    engine = s_breakdown(spec)
    element = s_breakdown_by_elements(spec)
    assert list(engine.items()) == list(element.items())  # same labels, same order
    assert sum(engine.values(), Fraction(0)) == sum_chi_by_elements(spec)


def _plain_breakdown_by_elements(spec):
    """Label -> sum of `chi` over the non-identity elements, each call on
    its own with no shared mapping of inverses."""
    model = _model.family_model(spec)
    group = build_group(spec)
    character = rho(spec, group)
    out = dict.fromkeys(model.labels, CyclotomicNumber.zero())
    for k in group.keys[1:]:
        out[model.label(k)] += chi(group.to_matrix(k), character.value(k))
    return {label: v.as_rational() for label, v in out.items()}


@pytest.mark.parametrize("spec", sweep_specs(120), ids=str)
def test_cyclic_subgroup_route_equals_the_plain_per_element_sum(spec):
    by_subgroups = s_breakdown_by_elements(spec)
    assert list(by_subgroups.items()) == list(_plain_breakdown_by_elements(spec).items())


def test_family_labels_split_a_cyclic_subgroup_only_where_rho_is_1():
    # The fact the per-element route rests on, read off the character's
    # exponents with no `chi`: a cyclic subgroup whose generators carry two
    # labels holds a pure y^l (Lambda3) beside Lambda1, so rho is 1 on it.
    subgroups, split = 0, []
    for spec in sweep_specs(600):
        model = _model.family_model(spec)
        group = build_group(spec)
        character = rho(spec, group)
        seen = bytearray(group.order)
        for k in group.keys[1:]:
            if seen[k]:
                continue
            powers = list(group.powers(k))
            gens = [g for t, g in enumerate(powers, 1) if math.gcd(t, len(powers)) == 1]
            for g in gens:
                seen[g] = 1
            subgroups += 1
            labels = sorted({model.label(g) for g in gens})
            if len(labels) > 1:
                split.append((spec.family, labels, character.value_exp(k) % character.zeta_order))
    assert (subgroups, len(split)) == (22240, 1705)
    assert {(family, tuple(labels), exp) for family, labels, exp in split} == {
        ("DD", ("Lambda1", "Lambda3"), 0),
        ("DC", ("Lambda1", "Lambda3"), 0),
    }


@pytest.mark.parametrize(
    "spec, order",
    [(GroupSpec("DD", 3, 4), 6), (GroupSpec("DC", 4, 3), 8), (GroupSpec("OO", 7), 14)],
    ids=str,
)
def test_cyclic_subgroup_route_raises_on_labels_that_split_where_chi_is_not_0(
    monkeypatch, spec, order
):
    # Labels by key mod 3 split the subgroup of the scalar mu_2m (key 1, of
    # order 2m), where chi is not 0: its trace has no one label to go to.
    monkeypatch.setattr(_model, "family_model", labels_by_key_mod_3(_model.family_model))
    with pytest.raises(InternalInvariantError) as info:
        s_breakdown_by_elements(spec)
    assert info.value.witness == {"spec": spec, "key": 1, "order": order}
    assert str(info.value) == f"cyclic subgroup of key 1 in {spec} spans two labels where chi is not 0"


def _label_mismatches(specs):
    """(spec, engine labels, per-element labels) for each spec where they differ."""
    out = []
    for spec in specs:
        engine = list(s_breakdown(spec).items())
        element = list(s_breakdown_by_elements(spec).items())
        if engine != element:
            out.append((str(spec), engine, element))
    return out


def test_engine_matches_the_per_element_route_on_every_label_to_600():
    specs = sweep_specs(600)
    assert len(specs) == 445
    assert _label_mismatches(specs) == []


def test_engine_matches_the_per_element_route_on_polyhedral_labels_to_4000():
    specs = [s for s in sweep_specs(4000) if s.family not in ("DD", "DC")]
    assert len(specs) == 120
    assert _label_mismatches(s for s in specs if s.order > 600) == []


@pytest.mark.parametrize("spec", [GroupSpec("DD", 5, 3), GroupSpec("DC", 4, 3), GroupSpec("OO", 7)], ids=str)
def test_per_element_route_raises_on_a_cyclic_subgroup_with_eigenvalue_1(monkeypatch, spec):
    # Give every generator of one cyclic subgroup the matrix diag(1, -1),
    # as a group that does not act freely would: `chi` meets det(g - 1) = 0.
    group = build_group(spec)
    k = group.keys[-1]
    powers = list(group.powers(k))
    gens = {g for t, g in enumerate(powers, 1) if math.gcd(t, len(powers)) == 1}
    assert len(gens) > 1
    fixes_line = UnitaryElement(((1, 0), (0, -1)), check=False)
    to_matrix = group.to_matrix
    group.to_matrix = lambda key: fixes_line if key in gens else to_matrix(key)
    monkeypatch.setattr(swindex, "build_group", lambda _: group)
    for _ in range(2):
        with pytest.raises(DomainError, match="eigenvalue 1"):
            s_breakdown_by_elements(spec)


def test_per_element_route_keeps_no_state_across_calls(monkeypatch):
    calls = []
    inverse = CyclotomicNumber.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CyclotomicNumber, "inverse", counted)
    spec = GroupSpec("DD", 5, 2)
    counts = []
    for _ in range(2):
        calls.clear()
        s_breakdown_by_elements(spec)
        counts.append(len(calls))
    # Each distinct denominator is inverted once per call, and again in
    # the next call: the mapping lives for one call only.
    assert 0 < counts[0] == counts[1] < spec.order - 1


def test_chi_raises_every_time_with_a_shared_mapping():
    inverses = {}
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    assert chi(minus, -ONE, inverses) == -1
    ident = UnitaryElement(((1, 0), (0, 1)), check=False)
    fixes_line = UnitaryElement(((1, 0), (0, -1)), check=False)
    for _ in range(2):
        with pytest.raises(DomainError):
            chi(ident, ONE, inverses)
        with pytest.raises(DomainError):
            chi(fixes_line, -ONE, inverses)
    assert len(inverses) == 1  # only the invertible denominator of -I
    assert chi(minus, -ONE, inverses) == -1


def test_chi_with_trivial_rho_checks_freeness_and_stores_nothing():
    # rho = 1: zero where det(g - 1) != 0, with no denominator formed or kept.
    inverses = {}
    fixes_line = UnitaryElement(((1, 0), (0, -1)), check=False)
    swap = UnitaryElement(((0, 1), (1, 0)), check=False)  # eigenvalues 1, -1
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    for _ in range(2):
        for g in (fixes_line, swap):
            with pytest.raises(DomainError, match="eigenvalue 1"):
                chi(g, ONE, inverses)
        assert chi(minus, ONE, inverses).is_zero()
    assert inverses == {}


# Every valid spec with |G| <= 336, by family, so that a drawn family comes
# up even though the dihedral families hold almost all of the specs.
SPECS_BY_FAMILY = {f: [s for s in sweep_specs(336) if s.family == f] for f in FAMILIES}


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(FAMILIES).flatmap(lambda f: st.sampled_from(SPECS_BY_FAMILY[f])))
@example(spec=GroupSpec("OO", 7))
def test_engine_matches_per_element_labels_on_random_specs(spec):
    engine = s_breakdown(spec)
    element = s_breakdown_by_elements(spec)
    assert list(engine.items()) == list(element.items())
    assert list(element.items()) == list(_plain_breakdown_by_elements(spec).items())


@st.composite
def coset_parameters(draw):
    """(N, K, c, w2m, a_exp, b_exp) with K | N and two distinct eigenvalue
    exponents whose K-th powers are not 1, as freeness guarantees."""
    N = draw(st.integers(3, 60))
    K = draw(st.sampled_from([k for k in range(1, N) if N % k == 0]))
    free = [e for e in range(N) if (e * K) % N]
    a_exp = draw(st.sampled_from(free))
    b_exp = draw(st.sampled_from([e for e in free if e != a_exp]))
    c = draw(st.integers(0, K - 1))
    w2m = draw(st.integers(0, K - 1))
    return N, K, c, w2m, a_exp, b_exp


@settings(max_examples=100, deadline=None)
@given(params=coset_parameters())
def test_coset_sum_closed_form_matches_direct_summation(params):
    from ellsw.swindex import _coset_sum

    # sum_k 2 (w r^k - 1) / ((1 - mu^-k zeta_N^-a)(1 - mu^-k zeta_N^-b)) over
    # k < K, with mu = zeta_K, w = mu^w2m and r = mu^c, term by term.
    N, K, c, w2m, a_exp, b_exp = params
    w = root_of_unity(w2m, K)
    direct = CyclotomicNumber.zero()
    for k in range(K):
        mu_k = root_of_unity(-k, K)
        den = (ONE - mu_k * root_of_unity(-a_exp, N)) * (ONE - mu_k * root_of_unity(-b_exp, N))
        direct = direct + (w * root_of_unity(c * k, K) - ONE) * 2 * den.inverse()
    assert _coset_sum(N, K, c, w2m, a_exp, b_exp, 1).to_cyclotomic() == direct
    # count cosets that share the descriptor sum to count times one
    assert _coset_sum(N, K, c, w2m, a_exp, b_exp, 3).to_cyclotomic() == direct * 3


def test_chi_conjugate_pairs_are_real():
    spec = GroupSpec("DD", 3, 4)
    group = build_group(spec)
    character = rho(spec, group)
    rng = random.Random(3)
    keys = [k for k in group.keys if k != group.identity]
    for k in rng.sample(keys, 8):
        inv = group.inverse(k)
        total = chi(group.to_matrix(k), character.value(k)) + chi(
            group.to_matrix(inv), character.value(inv)
        )
        assert total == total.conjugate()


def test_sum_chi_is_rational_for_every_small_spec():
    for spec in sweep_specs(240):
        labels = s_breakdown(spec)
        total = sum(labels.values(), Fraction(0))
        assert isinstance(total, Fraction)


def test_dimension_even_and_at_least_two_sampled():
    for spec in sweep_specs(500):
        d = d_E(spec)
        assert d % 2 == 0 and d >= 2


def test_report_serialization_shape():
    rec = sw_dimension_report(GroupSpec("II", 7)).to_dict()
    assert rec["dE"] == 4
    assert rec["c1E_sq"] == "30/7"
    assert rec["minus_K_c1E"] == "8/7"
    assert rec["S"] == {"S0": "32/1", "S1": "-672/1", "S2": "-560/1", "S3": "0/1"}
    assert rec["sum_chi"] == "-1200/1"


def test_breakdown_entries_sum_to_total():
    for spec in (GroupSpec("II", 29), GroupSpec("OO", 7), GroupSpec("DD", 5, 3)):
        labels = s_breakdown(spec)
        total = sum(labels.values(), Fraction(0))
        assert total == singular_point_contribution(spec) * spec.order


def test_pairings_are_consistent_with_the_euler_number():
    # c1(E) is dual to the central curve class scaled by 1/e, so
    # c1(E)^2 = 1/e and -K.c1(E) = (m+1)/m = (-K.C0)/e with e = 4m^2/|G|.
    from ellsw.seifert import euler_number
    from ellsw.swindex import c1E_squared, minus_K_dot_c1E

    for spec in sweep_specs(800):
        e = euler_number(spec)
        assert c1E_squared(spec) == 1 / e
        k_dot_c0 = -Fraction(4 * spec.m * (spec.m + 1), spec.order)
        assert minus_K_dot_c1E(spec) == -k_dot_c0 / e


def test_icosahedral_class_count():
    assert len(build_group(GroupSpec("II", 1)).conjugacy_classes()) == 9


def test_coset_sum_is_symmetric_and_galois_equivariant_as_stored():
    # The rationality certificate relies on the stored coset sums being
    # literally symmetric in the two eigenvalue exponents and mapping, term
    # for term, onto the sum of the image coset under every Galois twist.
    from ellsw.swindex import _coset_sum

    N, K, c = 60, 10, 4
    for (w, a, b) in ((6, 7, 53), (2, 11, 49), (14, 3, 25)):
        s1 = _coset_sum(N, K, c, w, a, b, 1)
        s2 = _coset_sum(N, K, c, w, b, a, 1)
        assert s1.c == s2.c
        for t in (7, 11, 59):
            image = _coset_sum(N, K, c, (w * t) % K, (a * t) % N, (b * t) % N, 1)
            assert s1.galois_permuted(t).c == image.c


def test_sweep_specs_skips_only_constraint_errors(monkeypatch):
    from ellsw import groups

    def broken_validate(self):
        if self.family == "II":
            raise InternalInvariantError("validation itself failed")
        return self

    monkeypatch.setattr(groups.GroupSpec, "validate", broken_validate)
    with pytest.raises(InternalInvariantError):
        sweep_specs(240)


def test_rotation_label_matches_the_summed_rotation_cosets():
    # A third route to Lambda1: the scalar coset plus the coset formula summed
    # over the rotation cosets y^l, 0 < l < n.  One rotation coset is not
    # rational by itself, so the sums are accumulated before certifying.
    from ellsw import _model
    from ellsw.rootsum import RootSum
    from ellsw.swindex import _coset_sum, _dihedral_rotation_sum, _scalar_sum

    specs = [spec for spec in sweep_specs(400) if spec.family in ("DD", "DC")]
    assert len(specs) > 200
    for spec in specs:
        model = _model.family_model(spec)
        N, K = model.N, model.K
        c = model.c0 % K
        total = RootSum(N)
        for l in range(1, spec.n):
            key = model.encode(0, l, 0)
            a_exp, b_exp = model.eigen_exps(key)
            total.add_scaled(_coset_sum(N, K, c, model.rho_exp_2m(key), a_exp, b_exp, 1))
        expect = _scalar_sum(K, c) + total.rational_value()
        assert _dihedral_rotation_sum(spec.m, spec.n) == expect, spec


def test_free_action_closed_form_matches_the_rotation_loop():
    # validate_free_action tests the rotation cosets in closed form; the
    # reference is the loop over y^l, 0 < l < n, on a grid of (N, K, n) with
    # K | N and 2n | N, free and non-free.
    from ellsw import _model

    model = _model.DihedralModel(GroupSpec("DD", 1, 2))
    outcomes = {True: 0, False: 0}
    for N in range(4, 241, 4):
        for K in (k for k in range(1, N + 1) if N % k == 0):
            for n in (n for n in range(2, N // 2 + 1) if N % (2 * n) == 0):
                step, rot_step = N // K, N // (2 * n)
                loop = any((l * rot_step) % step == 0 for l in range(1, n))
                model.N, model.K, model.n, model._rot_step = N, K, n, rot_step
                model._s_step = step
                try:
                    model.validate_free_action()
                    raised = False
                except InternalInvariantError as exc:
                    # The reflection test after it reads the untouched fields.
                    raised = "rotation" in str(exc)
                assert raised == loop, (N, K, n)
                outcomes[loop] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000


def test_polyhedral_cosets_are_grouped_once_per_descriptor():
    # The descriptors of TT/TD/OO/II count the 11, 23 or 59 non-scalar atom
    # pairs between them, and no two share (label, w2m, a_exp, b_exp).
    pairs = {"T": 11, "O": 23, "I": 59}
    specs = [spec for spec in sweep_specs(4000) if spec.family not in ("DD", "DC")]
    assert len(specs) > 100
    for spec in specs:
        model = _model.family_model(spec)
        cosets = list(model.nonscalar_cosets())
        assert sum(data.count for data in cosets) == pairs[BINARY_KIND[spec.family]], spec
        keys = [(data.label, data.w2m, data.a_exp, data.b_exp) for data in cosets]
        assert len(set(keys)) == len(keys), spec
        assert all(data.a_exp <= data.b_exp for data in cosets), spec


def test_engine_groups_each_polyhedral_spec_once(monkeypatch):
    # The freeness check hands the engine the descriptors it checked.
    calls = []
    nonscalar_cosets = _model.PolyhedralModel.nonscalar_cosets

    def counted(self):
        calls.append(self.spec)
        return nonscalar_cosets(self)

    monkeypatch.setattr(_model.PolyhedralModel, "nonscalar_cosets", counted)
    for family in ("TT", "TD", "OO", "II"):
        spec = next(s for s in sweep_specs(600) if s.family == family)
        calls.clear()
        swindex._singular_sums.__wrapped__(spec)
        assert calls == [spec]


def test_engine_stores_nothing():
    # Each call builds its own label dict, and the engine's size-0 cache
    # wrapper keeps only its call counter.
    spec = GroupSpec("OO", 5)
    first, second = s_breakdown(spec), s_breakdown(spec)
    assert first == second and first is not second
    assert swindex._singular_sums.cache_info().currsize == 0


def test_breakdown_lists_the_model_labels_in_report_order():
    # Single-spec swdim prints the labels in this order.
    for spec in sweep_specs(1200):
        assert list(s_breakdown(spec)) == list(_model.family_model(spec).labels), spec
