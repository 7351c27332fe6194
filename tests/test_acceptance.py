"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything runs in exact arithmetic.  The heavy sweeps share a module-scoped
spec list; group closures are rebuilt where a criterion demands the honest
construction path.
"""

import json
from fractions import Fraction

import pytest

from ellsw import _model
from ellsw.bundle import section_equivariance_report, verify_section_equivariance
from ellsw.cyclo import CyclotomicNumber, root_of_unity
from ellsw.curves import (
    CurveClassData,
    OrbifoldPointRecord,
    adjunction_slack,
    fredholm_index,
    kpair_lower_bound,
    kz_lower_bound,
    kz_min_at_p0,
    orbifold_genus,
    virtual_genus,
)
from ellsw.groups import GroupSpec, build_group
from ellsw.seifert import euler_number, normalized_invariant
from ellsw.swindex import (
    _singular_sums,
    closed_form_d_E,
    d_E,
    s_breakdown,
    sw_dimension_report,
    sweep_specs,
)

MAX_ORDER = 4000


@pytest.fixture(scope="module")
def all_specs():
    return sweep_specs(MAX_ORDER)


def _expected_dimension(spec):
    # The published case table, restated independently of closed_form_d_E.
    f, m = spec.family, spec.m
    if f in ("DD", "DC"):
        if m > spec.n:
            return 2
        delta = spec.n // m
        return delta + 2 + (0 if delta % 2 == 0 else -1)
    if f in ("TT", "TD"):
        return 8 if m == 1 else 2
    if f == "OO":
        return 14 if m == 1 else 2
    return 32 if m == 1 else 4 if m == 7 else 2


def test_criterion_1_dimension_table_reproduced(all_specs):
    """d(E) computed from the group data equals the published table, |G| <= 4000."""
    mismatches = [
        spec
        for spec in all_specs
        if not (d_E(spec) == _expected_dimension(spec) == closed_form_d_E(spec))
    ]
    assert not mismatches, mismatches[:5]
    print(f"\n[criterion 1] PASS dimension table reproduced on {len(all_specs)} specs")


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


def test_criterion_2_breakdown_records_bit_for_bit():
    """S0..S3 records for the octahedral and icosahedral families."""
    for m, rec in OCTA_RECORDS.items():
        got = s_breakdown(GroupSpec("OO", m))
        assert tuple(got[k] for k in ("S0", "S1", "S2", "S3")) == rec, ("OO", m, got)
    for m, rec in ICOSA_RECORDS.items():
        got = s_breakdown(GroupSpec("II", m))
        assert tuple(got[k] for k in ("S0", "S1", "S2", "S3")) == rec, ("II", m, got)
    print(f"\n[criterion 2] PASS {len(OCTA_RECORDS) + len(ICOSA_RECORDS)} breakdown records match")


def test_criterion_3_dihedral_closed_sums(all_specs):
    """Lambda sums match their closed forms for every dihedral spec."""
    checked = 0
    for spec in all_specs:
        if spec.family not in ("DD", "DC"):
            continue
        m, n = spec.m, spec.n
        labels = s_breakdown(spec)
        if m > n:
            lam1, lam2 = 4 * n * (m - n - 1), 0
        else:
            delta, r = divmod(n, m)
            lam1 = 4 * m * n - 4 * n * (r + 1)
            lam2 = 2 * m * n * ((-1) ** delta - 1)
        assert labels["Lambda1"] == lam1, (spec, labels)
        assert labels["Lambda2"] == lam2, (spec, labels)
        assert labels["Lambda3"] == 0, (spec, labels)
        checked += 1
    print(f"\n[criterion 3] PASS dihedral closed sums on {checked} specs")


def test_criterion_4_group_theory_suite(all_specs):
    """Closure orders, per-element free action, scalar subgroup, abelianization."""
    for spec in all_specs:
        group = build_group(spec)  # breadth-first closure; order asserted inside
        assert group.order == spec.order
        model = _model.family_model(spec)
        N = model.N
        scalars = 0
        for key in group.keys:
            e1, e2 = model.eigen_exps(key)
            if key != group.identity:
                assert e1 % N and e2 % N, (spec, key, "eigenvalue 1: not free")
            if model.is_scalar(key):
                scalars += 1
        assert scalars == 2 * spec.m, (spec, scalars)
    ab_checked = 0
    for spec in all_specs:
        if spec.family != "DD" or spec.order > 400:
            continue
        factors = build_group(spec).abelianization().factors
        if spec.n % 2 == 0:
            expected = (2, 2 * spec.m) if spec.m > 1 else (2, 2)
        else:
            expected = (4 * spec.m,)
        assert factors == expected, (spec, factors)
        ab_checked += 1
    print(
        f"\n[criterion 4] PASS orders/freeness/scalars on {len(all_specs)} specs, "
        f"abelianization on {ab_checked} dihedral specs"
    )


def test_criterion_5_seifert_identity(all_specs):
    """b + sum b_i/a_i = 4m^2/|G| exactly, plus the pinned legs."""
    for spec in all_specs:
        inv = normalized_invariant(spec)
        assert inv.euler_number == euler_number(spec), spec
    assert normalized_invariant(GroupSpec("OO", 5)).legs[2] == (4, 1)
    assert normalized_invariant(GroupSpec("II", 11)).legs[2] == (5, 1)
    assert normalized_invariant(GroupSpec("II", 13)).legs[2] == (5, 3)
    print(f"\n[criterion 5] PASS Seifert identity on {len(all_specs)} specs")


EQUIVARIANCE_CASES = [
    ("DD", 1, 2), ("DD", 1, 3),
    ("DC", 2, 3), ("DC", 2, 5),
    ("TT", 1, 0), ("TT", 5, 0),
    ("TD", 3, 0), ("TD", 9, 0),
    ("OO", 1, 0), ("OO", 5, 0),
    ("II", 1, 0), ("II", 7, 0),
]


def test_criterion_6_section_equivariance():
    """f(gz) = rho(g) f(z), checked as rho(g) = V(g) for the transfer V, two
    specs per family (the polynomial route is compared with it in
    tests/test_bundle.py)."""
    for family, m, n in EQUIVARIANCE_CASES:
        assert verify_section_equivariance(GroupSpec(family, m, n)), (family, m, n)
    # Printed witnesses for the degree-six dihedral section (n = 3).
    report = section_equivariance_report(GroupSpec("DD", 1, 3))
    assert report["holds"] == [True, True, True]
    # f(hz) = mu_2^6 f(z) = f(z) and f(xz) = mu_2 f(z) = -f(z)
    assert [e for _, _, e in report["generators"][:2]] == [0, 1]
    report = section_equivariance_report(GroupSpec("DD", 5, 3))
    assert report["holds"][0] and report["generators"][0][2] == 6  # f(hz) = mu_10^6 f(z)
    print(f"\n[criterion 6] PASS equivariance on {len(EQUIVARIANCE_CASES)} specs plus witnesses")


def test_criterion_7_curve_arithmetic():
    """Index of the member moduli problem, forced adjunction equality, and the
    two-branch icosahedral infeasibility."""
    for spec in (GroupSpec("DD", 1, 2), GroupSpec("DD", 3, 2), GroupSpec("DC", 2, 3),
                 GroupSpec("TT", 1), GroupSpec("TD", 3), GroupSpec("OO", 1), GroupSpec("II", 1)):
        m = spec.m
        assert fredholm_index(Fraction(m + 1, m), 0, [(2 * m, 1, 1)]) == 6
        lhs = virtual_genus(
            CurveClassData(Fraction(spec.order, 4 * m * m), -Fraction(m + 1, m))
        )
        rhs = orbifold_genus(0, [2 * m]) + kz_min_at_p0(2 * m, spec.order)
        assert lhs == rhs, spec
    lhs = virtual_genus(CurveClassData(Fraction(30, 11), -Fraction(12, 11)))
    assert lhs == Fraction(20, 11)
    z1 = OrbifoldPointRecord(5, 1, None, 5)
    z2 = OrbifoldPointRecord(5, 4, 4, 5)
    slack = adjunction_slack(
        lhs,
        [
            orbifold_genus(0, [5, 5]),
            kz_lower_bound(z1, 5),
            kz_lower_bound(z2, 5),
            kpair_lower_bound(z1, z2, 5),
            Fraction(1, 2),
        ],
    )
    assert slack <= Fraction(20, 11) - Fraction(5, 2) < 0
    print("\n[criterion 7] PASS curve arithmetic (index 6, forced equality, infeasibility)")


def test_criterion_8_property_suites(all_specs):
    """Field axioms and root sums to order 240, rationality and parity of the
    chi-sums across the sweep, and byte-identical reserialization."""
    for n in range(1, 241):
        z = root_of_unity(1, n)
        acc = CyclotomicNumber.one()
        total = CyclotomicNumber.zero()
        for _ in range(n):
            total = total + acc
            acc = acc * z
        assert acc == 1, n
        if n > 1:
            assert total.is_zero(), n
    for spec in all_specs:
        total = sum(_singular_sums(spec).values(), Fraction(0))
        assert isinstance(total, Fraction)  # engine certifies rationality
        d = d_E(spec)
        assert d % 2 == 0 and d >= 2, spec
    sample = [s for s in all_specs if s.order <= 600]
    first = [json.dumps(sw_dimension_report(s).to_dict(), sort_keys=True) for s in sample]
    _singular_sums.cache_clear()
    second = [json.dumps(sw_dimension_report(s).to_dict(), sort_keys=True) for s in sample]
    assert first == second
    print(
        f"\n[criterion 8] PASS root identities to order 240, parity/rationality on "
        f"{len(all_specs)} specs, determinism on {len(sample)} reports"
    )
