import random
from fractions import Fraction

import pytest

from ellsw.cyclo import CyclotomicNumber, root_of_unity
from ellsw.errors import DomainError
from ellsw.groups import GroupSpec, UnitaryElement, build_group
from ellsw.swindex import (
    SectorData,
    chi,
    closed_form_d_E,
    d_E,
    i2_term,
    s_breakdown,
    s_breakdown_by_elements,
    sector0_term,
    sector1_term,
    singular_point_contribution,
    sum_chi_by_elements,
    sw_dimension_report,
    sweep_specs,
)

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
    GroupSpec("TD", 3), GroupSpec("OO", 1),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_engine_matches_per_element_enumeration(spec):
    # Independent oracle: matrices, extended character, cyclotomic division.
    engine = s_breakdown(spec)
    element = s_breakdown_by_elements(spec)
    assert engine == element
    assert sum(engine.values(), Fraction(0)) == sum_chi_by_elements(spec)


def test_chi_conjugate_pairs_are_real():
    from ellsw.bundle import rho

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


def test_sector0_hand_value():
    minus = -ONE
    data = SectorData(dimension=0, theta_E=minus, theta1=minus, theta2=minus)
    # (1/2) * 2(-2)/4 = -1/2
    assert sector0_term(data, 2) == Fraction(-1, 2)
    zero_sector = SectorData(dimension=0, theta_E=ONE, theta1=minus, theta2=minus)
    assert sector0_term(zero_sector, 2).is_zero()
    with pytest.raises(DomainError):
        sector0_term(SectorData(dimension=0, theta_E=minus, theta1=ONE, theta2=minus), 2)


def test_sector1_hand_values():
    minus = -ONE
    data = SectorData(
        dimension=1, theta_E=minus, theta=minus,
        c1E_pairing=Fraction(0), c1TX_pairing=Fraction(0), c1N_pairing=Fraction(1),
    )
    assert sector1_term(data) == -1
    vanishing = SectorData(
        dimension=1, theta_E=ONE, theta=minus,
        c1E_pairing=Fraction(0), c1TX_pairing=Fraction(5), c1N_pairing=Fraction(3),
    )
    assert sector1_term(vanishing).is_zero()


def test_sector1_against_high_precision_numeric():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    theta_E = root_of_unity(1, 3)
    theta = root_of_unity(1, 4)
    data = SectorData(
        dimension=1, theta_E=theta_E, theta=theta,
        c1E_pairing=Fraction(2, 3), c1TX_pairing=Fraction(1, 2), c1N_pairing=Fraction(-1, 5),
    )
    exact = sector1_term(data)
    eE = mpmath.exp(2j * mpmath.pi / 3)
    et = mpmath.exp(2j * mpmath.pi / 4)
    inv = 1 / (1 - 1 / et)
    numeric = (
        2 * eE * mpmath.mpf(2) / 3 * inv
        + (eE - 1) * mpmath.mpf(1) / 2 * inv
        - 2 / et * (eE - 1) * mpmath.mpf(-1) / 5 * inv**2
    )
    got = exact.to_complex()
    assert abs(got - complex(numeric)) < 1e-12


def test_sector1_conjugate_pair_is_real():
    data = SectorData(
        dimension=1, theta_E=root_of_unity(1, 5), theta=root_of_unity(1, 6),
        c1E_pairing=Fraction(1, 3), c1TX_pairing=Fraction(2), c1N_pairing=Fraction(1, 2),
    )
    conj = SectorData(
        dimension=1, theta_E=root_of_unity(-1, 5), theta=root_of_unity(-1, 6),
        c1E_pairing=data.c1E_pairing, c1TX_pairing=data.c1TX_pairing, c1N_pairing=data.c1N_pairing,
    )
    total = sector1_term(data) + sector1_term(conj)
    assert total == total.conjugate()


def test_i2_term():
    assert i2_term(Fraction(1), Fraction(0)) == 1
    assert i2_term(Fraction(30, 7), Fraction(-8, 7)) == Fraction(38, 7)
    assert i2_term(Fraction(12), Fraction(-2)) == 14


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
        s1 = _coset_sum(N, K, c, w, a, b)
        s2 = _coset_sum(N, K, c, w, b, a)
        assert s1.c == s2.c
        for t in (7, 11, 59):
            image = _coset_sum(N, K, c, (w * t) % K, (a * t) % N, (b * t) % N)
            assert s1.galois_permuted(t).c == image.c


def test_sweep_specs_skips_only_constraint_errors(monkeypatch):
    from ellsw import groups
    from ellsw.errors import InternalInvariantError

    def broken_validate(self):
        if self.family == "II":
            raise InternalInvariantError("validation itself failed")
        return self

    monkeypatch.setattr(groups.GroupSpec, "validate", broken_validate)
    with pytest.raises(InternalInvariantError):
        sweep_specs(240)
