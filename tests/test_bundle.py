import pytest

from ellsw import _model, bundle
from ellsw.bundle import (
    extend_character,
    generator_table,
    polynomial_section_report,
    rho,
    section_equivariance_report,
    verify_section_equivariance,
)
from ellsw.cyclo import root_of_unity
from ellsw.errors import CharacterConflictError
from ellsw.groups import GroupSpec, build_group, scalar_subgroup
from ellsw.swindex import sweep_specs

from character_checks import is_multiplicative, trivial_rho, twisted_rho
from test_acceptance import EQUIVARIANCE_CASES


def test_rho_generator_values_icosahedral():
    spec = GroupSpec("II", 7)
    group = build_group(spec)
    ch = rho(spec, group)
    h, x, y = group.gens
    assert ch.value(h) == root_of_unity(60, 14)
    assert ch.value(x) == 1
    assert ch.value(y) == 1


def test_rho_kills_minus_identity_dihedral():
    spec = GroupSpec("DD", 5, 2)
    group = build_group(spec)
    ch = rho(spec, group)
    h = group.gens[0]
    minus = h
    for _ in range(4):  # h^5 = -1 when m = 5
        minus = group.mult(minus, h)
    assert ch.value(minus) == 1
    assert ch.value(group.identity) == 1


def test_generator_table_matches_the_family_model():
    # The table is written from the paper; the model's rho_exp_2m from the
    # key encoding.  They agree on the generators of every spec to |G| <= 1200.
    specs = sweep_specs(1200)
    assert len(specs) == 1015
    for spec in specs:
        model = _model.family_model(spec)
        exps = [model.rho_exp_2m(g) for g in model.generators()]
        assert [e for _, e in generator_table(spec)] == exps, spec


@pytest.mark.parametrize("family,m,n", [("DD", 3, 2), ("DC", 2, 3), ("TT", 1, 0), ("TD", 3, 0), ("OO", 1, 0)])
def test_rho_is_multiplicative_on_full_table(family, m, n):
    spec = GroupSpec(family, m, n)
    ch = rho(spec)
    assert is_multiplicative(ch)


def test_rho_scalar_restriction_exponent_is_gamma_order():
    for spec in (GroupSpec("DD", 3, 2), GroupSpec("DC", 2, 3), GroupSpec("TT", 5), GroupSpec("II", 7)):
        group = build_group(spec)
        ch = rho(spec, group)
        h = group.gens[0]  # scalar generator mu_2m I
        assert ch.value(h) == root_of_unity(spec.gamma_order, 2 * spec.m)


def test_extend_character_cyclic_faithful():
    c4 = scalar_subgroup(build_group(GroupSpec("DC", 2, 3)))
    gen = next(k for k in c4.keys if c4.element_order(k) == 4)
    ch = extend_character(c4, 4, [(gen, 1)])
    assert is_multiplicative(ch)
    assert ch.value(gen) == root_of_unity(1, 4)


def test_extend_character_normalizes_the_order():
    # zeta_8^2 = zeta_4: the character is stored over the least order.
    c4 = scalar_subgroup(build_group(GroupSpec("DC", 2, 3)))
    gen = next(k for k in c4.keys if c4.element_order(k) == 4)
    ch = extend_character(c4, 8, [(gen, 2)])
    assert ch.zeta_order == 4
    assert ch.exponents == extend_character(c4, 4, [(gen, 1)]).exponents


def test_extend_character_consistent_order_two():
    d2 = build_group(GroupSpec("DD", 1, 2))
    _, x, y = d2.gens
    ch = extend_character(d2, 2, [(x, 1), (y, 1)])  # rho(x) = rho(y) = -1
    assert is_multiplicative(ch)
    assert ch.value(d2.mult(x, y)) == 1


def test_extend_character_conflict_detected():
    d2 = build_group(GroupSpec("DD", 1, 2))
    _, x, y = d2.gens
    # x^2 = y^2 = -1 forces rho(x)^2 = rho(y)^2; i and 1 disagree.
    with pytest.raises(CharacterConflictError):
        extend_character(d2, 4, [(x, 1), (y, 0)])


@pytest.mark.parametrize(
    "family,m,n",
    [
        ("DD", 1, 2), ("DD", 1, 3), ("DD", 3, 2), ("DD", 5, 3),
        ("DC", 2, 3), ("DC", 2, 5),
        ("TT", 1, 0), ("TD", 3, 0), ("OO", 1, 0), ("II", 1, 0),
    ],
)
def test_section_equivariance(family, m, n):
    assert verify_section_equivariance(GroupSpec(family, m, n))


def test_section_equivariance_witnesses_order_three_dihedral():
    # With n = 3 the section has degree 6: f(hz) = mu_{2m}^6 f(z), f(xz) = -f(z).
    spec = GroupSpec("DD", 5, 3)
    report = section_equivariance_report(spec)
    assert report["holds"] == [True, True, True]
    # mu_10^6, mu_10^5 = -1 and 1
    assert [e for _, _, e in report["generators"]] == [6, 5, 0]


def test_icosahedral_section_invariant_on_binary_icosahedral_part():
    report = section_equivariance_report(GroupSpec("II", 1))
    assert report["holds"][1:] == [True, True]
    assert [e for _, _, e in report["generators"][1:]] == [0, 0]


def test_section_check_fails_for_the_trivial_character(monkeypatch):
    # On DD(1,3) the trivial character is consistent, but f(xz) = -f(z).
    monkeypatch.setattr(bundle, "generator_table", trivial_rho(bundle.generator_table))
    spec = GroupSpec("DD", 1, 3)
    report = section_equivariance_report(spec)
    h, x, y = build_group(spec).gens
    assert report["ok"] is False
    assert report["generators"] == [("h", h, 0), ("x", x, 0), ("y", y, 0)]
    assert report["holds"] == [True, False, True]
    assert not verify_section_equivariance(spec)


def test_section_routes_read_only_the_generator_table(monkeypatch):
    # Agreement on the generators is the whole check: neither route extends
    # the character over the group.
    def no_extension(*args):
        raise AssertionError("a section route extended the character")

    monkeypatch.setattr(bundle, "extend_character", no_extension)
    for spec in (GroupSpec(*case) for case in EQUIVARIANCE_CASES):
        assert verify_section_equivariance(spec), spec
        assert section_equivariance_report(spec)["ok"], spec
        assert polynomial_section_report(spec)["ok"], spec


@pytest.mark.parametrize("spec", [GroupSpec("DD", 3, 2), GroupSpec("II", 1)], ids=str)
def test_extend_character_multiplies_each_key_by_each_generator_once(spec):
    group = build_group(spec)
    mult, calls = group.mult, []
    group.mult = lambda a, b: calls.append(1) or mult(a, b)
    rho(spec, group)  # assigns a value to each of the three generators
    assert len(calls) == group.order * len(group.gens)


def test_transfer_and_polynomial_routes_agree():
    # Every spec small enough for the expanded polynomials: |Gamma| <= 24
    # and |G| <= 400 (II, with |Gamma| = 60, has none).
    specs = [s for s in sweep_specs(400) if s.gamma_order <= 24]
    assert len(specs) == 134
    assert {s.family for s in specs} == {"DD", "DC", "TT", "TD", "OO"}
    for spec in specs:
        transfer = section_equivariance_report(spec)
        polynomial = polynomial_section_report(spec)
        assert transfer["ok"] and polynomial["ok"], spec
        assert polynomial["generators"] == transfer["generators"], spec
        assert polynomial["holds"] == transfer["holds"], spec


@pytest.mark.parametrize(
    "spec,wrap,flagged",
    [
        # rho(x) = -1 on DD(1,3), but the trivial character says 1.
        (GroupSpec("DD", 1, 3), trivial_rho, "x"),
        # rho(h) times zeta_5 = mu_10^2, a root of order dividing m: still a
        # character.
        (GroupSpec("TT", 5), lambda table: twisted_rho(table, 2), "h"),
        (GroupSpec("OO", 5), lambda table: twisted_rho(table, 4), "h"),
    ],
    ids=["DD(1,3)-trivial", "TT(5)-twisted-h", "OO(5)-twisted-h"],
)
def test_both_routes_reject_a_wrong_character(monkeypatch, spec, wrap, flagged):
    monkeypatch.setattr(bundle, "generator_table", wrap(bundle.generator_table))
    transfer = section_equivariance_report(spec)
    polynomial = polynomial_section_report(spec)
    assert transfer["ok"] is False and polynomial["ok"] is False
    for report in (transfer, polynomial):
        failed = [name for (name, _, _), ok in zip(report["generators"], report["holds"]) if not ok]
        assert failed == [flagged]
    assert not verify_section_equivariance(spec)
