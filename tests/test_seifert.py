from fractions import Fraction
from math import gcd

import pytest

from ellsw.groups import GroupSpec
from ellsw.seifert import euler_number, normalized_invariant


@pytest.mark.parametrize(
    "family,m,n,e",
    [
        ("DD", 5, 2, Fraction(5, 2)),
        ("II", 1, 0, Fraction(1, 30)),
        ("TT", 5, 0, Fraction(5, 6)),
        ("DC", 2, 3, Fraction(2, 3)),
        ("TD", 3, 0, Fraction(1, 2)),
    ],
)
def test_euler_number(family, m, n, e):
    assert euler_number(GroupSpec(family, m, n)) == e


def test_normalized_invariant_examples():
    inv = normalized_invariant(GroupSpec("DD", 5, 2))
    assert inv.b == 1 and inv.legs == ((2, 1), (2, 1), (2, 1))
    inv = normalized_invariant(GroupSpec("TT", 5))
    assert inv.b == -1 and inv.legs == ((2, 1), (3, 2), (3, 2))
    inv = normalized_invariant(GroupSpec("OO", 5))
    assert inv.b == -1 and inv.legs == ((2, 1), (3, 2), (4, 1))
    inv = normalized_invariant(GroupSpec("DD", 3, 2))
    assert inv.legs == ((2, 1), (2, 1), (2, 1))


def test_order_five_legs():
    assert normalized_invariant(GroupSpec("II", 11)).legs[2] == (5, 1)
    assert normalized_invariant(GroupSpec("II", 13)).legs[2] == (5, 3)


def test_euler_identity_holds_across_small_sweep():
    from ellsw.swindex import sweep_specs

    for spec in sweep_specs(600):
        inv = normalized_invariant(spec)
        assert inv.euler_number == euler_number(spec), spec
        for a, b in inv.legs:
            assert 0 < b < a and gcd(a, b) == 1


def test_leg_solver_uniqueness_by_exhaustion():
    # For each family the congruence must pin the leg multiset uniquely.
    for spec in (GroupSpec("TT", 7), GroupSpec("TD", 9), GroupSpec("OO", 11), GroupSpec("II", 13)):
        inv = normalized_invariant(spec)
        a2, a3 = inv.legs[1][0], inv.legs[2][0]
        lead = {"TT": 6, "TD": 6, "OO": 12, "II": 30}[spec.family]
        c2 = {"TT": 2, "TD": 2, "OO": 4, "II": 10}[spec.family]
        c3 = {"TT": 2, "TD": 2, "OO": 3, "II": 6}[spec.family]
        sols = {
            tuple(sorted((b2, b3))) if a2 == a3 else (b2, b3)
            for b2 in range(1, a2)
            if gcd(b2, a2) == 1
            for b3 in range(1, a3)
            if gcd(b3, a3) == 1 and (lead // 2 + c2 * b2 + c3 * b3 - spec.m) % lead == 0
        }
        assert len(sols) == 1


def test_serialization():
    d = normalized_invariant(GroupSpec("OO", 5)).to_dict()
    assert d == {"e": "5/12", "b": -1, "legs": [[2, 1], [3, 2], [4, 1]]}


def test_negative_b_occurs():
    assert normalized_invariant(GroupSpec("II", 1)).b == -1


def test_invariant_must_meet_the_euler_number(monkeypatch):
    from ellsw.errors import InternalInvariantError

    spec = GroupSpec("OO", 7)
    normalized_invariant(spec)
    # With |G| doubled the Euler number 4m^2/|G| halves, and the legs miss it.
    order = GroupSpec.order
    monkeypatch.setattr(GroupSpec, "order", property(lambda s: 2 * order.fget(s)))
    with pytest.raises(InternalInvariantError, match="misses the Euler number"):
        normalized_invariant(spec)
