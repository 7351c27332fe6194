from fractions import Fraction

import pytest

from ellsw.curves import (
    CurveClassData,
    OrbifoldPointRecord,
    adjunction_slack,
    fredholm_index,
    intersection_with_c0,
    kpair_lower_bound,
    kz_lower_bound,
    kz_min_at_p0,
    orbifold_genus,
    run_audit,
    virtual_genus,
)
from ellsw.errors import DomainError
from ellsw.groups import GroupSpec
from ellsw.swindex import sweep_specs


def test_virtual_genus():
    assert virtual_genus(CurveClassData(Fraction(2, 3), Fraction(-4, 3))) == Fraction(2, 3)
    assert virtual_genus(CurveClassData(Fraction(0), Fraction(-2))) == 0
    # scaled class r c1(E) with r = 7/12 on the m = 5 octahedral quotient
    r = Fraction(7, 12)
    cc = r * r * Fraction(12, 5)
    kc = -r * Fraction(6, 5)
    assert virtual_genus(CurveClassData(cc, kc)) == Fraction(cc + kc, 2) + 1


def test_orbifold_genus():
    assert orbifold_genus(0, [6]) == Fraction(5, 12)
    assert orbifold_genus(0, []) == 0
    assert orbifold_genus(1, [2, 3]) == Fraction(19, 12)
    with pytest.raises(DomainError):
        orbifold_genus(-3, [])


def test_kz_min_at_p0():
    assert kz_min_at_p0(6, 24) == Fraction(1, 4)
    assert kz_min_at_p0(2, 120) == Fraction(59, 4)
    assert kz_min_at_p0(1, 1) == 0
    # 0 % 6 == 0, but no group has order 0.
    for point_order, group_order in ((5, 24), (6, 0), (6, -6)):
        with pytest.raises(DomainError):
            kz_min_at_p0(point_order, group_order)


def test_kz_lower_bound():
    assert kz_lower_bound(OrbifoldPointRecord(4, 3, 3, 4), 4) == Fraction(1, 2)
    assert kz_lower_bound(OrbifoldPointRecord(4, 1, None, 4), 4) == 0
    assert kz_lower_bound(OrbifoldPointRecord(1, 1, 1, 1), 1) == 0
    with pytest.raises(DomainError):
        kz_lower_bound(OrbifoldPointRecord(3, 2, None, 4), 4)


def test_kpair_lower_bound():
    a = OrbifoldPointRecord(4, 3, 3, 4)
    b = OrbifoldPointRecord(4, 1, None, 4)
    # min(l * infinity, 1 * 3) with the (1/n)(n/m_i)(n/m_j) factor, with
    # the undefined l' on either side
    assert kpair_lower_bound(a, b, 4) == kpair_lower_bound(b, a, 4) == Fraction(3, 4)
    # Unequal cross products: min(2 * 1, 3 * 5) in either order.
    c, d = OrbifoldPointRecord(3, 2, 5, 6), OrbifoldPointRecord(2, 3, 1, 6)
    assert kpair_lower_bound(c, d, 6) == kpair_lower_bound(d, c, 6) == 2
    smooth = OrbifoldPointRecord(1, 1, 1, 1)
    assert kpair_lower_bound(smooth, smooth, 1) == 1
    with pytest.raises(DomainError):
        kpair_lower_bound(b, b, 4)


def test_intersection_with_c0():
    assert intersection_with_c0([OrbifoldPointRecord(5, 2, 2, 5)]) == Fraction(2, 5)
    assert intersection_with_c0([]) == 0
    recs = [OrbifoldPointRecord(2, 1, 1, 2), OrbifoldPointRecord(3, 1, 1, 3)]
    assert intersection_with_c0(recs) == Fraction(5, 6)


def test_adjunction_slack():
    assert adjunction_slack(Fraction(2, 3), [Fraction(5, 12), Fraction(1, 4)]) == 0
    assert adjunction_slack(Fraction(1), [Fraction(1)]) == 0
    # adding terms never increases the slack
    base = adjunction_slack(Fraction(7, 3), [Fraction(1, 2)])
    assert adjunction_slack(Fraction(7, 3), [Fraction(1, 2), Fraction(1, 5)]) < base


def test_fredholm_index_member_data():
    for m in (1, 3, 5, 7):
        got = fredholm_index(Fraction(m + 1, m), 0, [(2 * m, 1, 1)])
        assert got == 6
    assert fredholm_index(Fraction(2), 0, []) == 8


def test_fredholm_integrality_constraint_order70():
    # On the m = 7 icosahedral quotient the weights at an order-70 point must
    # satisfy (w1 + w2)/70 = k/7 with k = 1 mod 7 for the index to be integral.
    assert fredholm_index(Fraction(8, 7), 0, [(70, 5, 5)]) == 6
    assert fredholm_index(Fraction(8, 7), 1, [(70, 3, 7)]) == 2
    with pytest.raises(DomainError):
        fredholm_index(Fraction(8, 7), 0, [(70, 3, 4)])
    with pytest.raises(DomainError):
        fredholm_index(Fraction(8, 7), 0, [(70, 80, 0)])


def _member_identity_data(spec):
    m, order = spec.m, spec.order
    cc = Fraction(order, 4 * m * m)
    kc = -Fraction(m + 1, m)
    lhs = virtual_genus(CurveClassData(cc, kc))
    rhs = orbifold_genus(0, [2 * m]) + kz_min_at_p0(2 * m, order)
    return lhs, rhs


@pytest.mark.parametrize(
    "spec",
    [GroupSpec("DD", 1, 2), GroupSpec("DD", 3, 2), GroupSpec("DC", 2, 3),
     GroupSpec("TT", 1), GroupSpec("TD", 3), GroupSpec("OO", 1), GroupSpec("II", 1)],
    ids=str,
)
def test_member_class_adjunction_closes_exactly(spec):
    lhs, rhs = _member_identity_data(spec)
    assert lhs == rhs


def test_member_class_adjunction_closes_across_sweep():
    for spec in sweep_specs(1200):
        lhs, rhs = _member_identity_data(spec)
        assert lhs == rhs, spec


def test_icosahedral_m11_two_point_configuration_is_infeasible():
    # Two branches at the order-5 point with windings summing to 5, plus the
    # cone point: the right side exceeds the virtual genus 20/11.
    m = 11
    lhs = virtual_genus(CurveClassData(Fraction(30, m), -Fraction(m + 1, m)))
    assert lhs == Fraction(20, 11)
    z1 = OrbifoldPointRecord(5, 1, None, 5)
    z2 = OrbifoldPointRecord(5, 4, 4, 5)
    rhs = [
        orbifold_genus(0, [5, 5]),
        kz_lower_bound(z1, 5),
        kz_lower_bound(z2, 5),
        kpair_lower_bound(z1, z2, 5),
        Fraction(1, 2),  # least possible cone-point share
    ]
    slack = adjunction_slack(lhs, rhs)
    assert slack <= Fraction(20, 11) - Fraction(5, 2)
    assert slack < 0


def test_run_audit_member_document():
    doc = {
        "class": {"CC": "2/3", "KC": "-4/3"},
        "underlying_genus": 0,
        "points": [
            {"order": 6, "l": 1, "lp": None, "ambient": 6, "cone_point": True, "group_order": 24}
        ],
    }
    result = run_audit(doc)
    assert result["slack"] == "0/1"
    assert result["feasible"]
    # A decimal string is read exactly.
    terms = run_audit({"class": {"CC": "0.1", "KC": 0}, "extra_terms": ["0.1"]})["rhs_terms"]
    assert terms == [["orbifold_genus", "0/1"], ["extra", "1/10"]]


def test_run_audit_rejects_malformed_documents():
    from ellsw.errors import InputDocumentError

    with pytest.raises(InputDocumentError):
        run_audit({"class": {"CC": "1/2"}})
    with pytest.raises(InputDocumentError):
        run_audit({"class": {"CC": "x", "KC": "0"}})
