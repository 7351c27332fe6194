import math

import pytest

from ellsw.cyclo import CyclotomicNumber, root_of_unity
from ellsw.errors import ConstraintError
from ellsw.groups import (
    FiniteGroup,
    GroupSpec,
    UnitaryElement,
    binary_dihedral_generators,
    build_binary_polyhedral,
    build_group,
    det_character,
    eigen_angles,
    eigen_exponents,
    scalar_subgroup,
    verify_free_action,
)
from ellsw import _model


@pytest.mark.parametrize(
    "kind,n,order",
    [("D", 2, 8), ("D", 3, 12), ("D", 5, 20), ("T", 0, 24), ("O", 0, 48), ("I", 0, 120), ("C", 7, 7)],
)
def test_binary_polyhedral_orders(kind, n, order):
    assert build_binary_polyhedral(kind, n).order == order


def test_octahedral_cyclic_subgroup_structure():
    group = build_binary_polyhedral("O")
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    subs = {8: set(), 6: set(), 4: set()}
    for g in group.keys:
        d = group.element_order(g)
        if d in subs:
            sub = []
            p = g
            while not p.is_identity():
                sub.append(group.index[p])
                p = group.mult(p, g)
            sub.append(group.index[group.identity])
            subs[d].add(frozenset(sub))
    # Keep only maximal cyclic subgroups.
    assert len(subs[8]) == 3
    six = {s for s in subs[6] if not any(s < t for t in subs[8])}
    four = {s for s in subs[4] if not any(s < t for t in subs[8] | subs[6])}
    assert len(six) == 4
    assert len(four) == 6
    core = {group.index[group.identity], group.index[minus]}
    groups_all = list(subs[8]) + list(six) + list(four)
    for i, a in enumerate(groups_all):
        for b in groups_all[i + 1:]:
            assert a & b == core


@pytest.mark.parametrize(
    "family,m,n,order",
    [
        ("DD", 3, 2, 24),
        ("DD", 1, 2, 8),
        ("DD", 5, 4, 80),
        ("DC", 2, 3, 24),
        ("DC", 4, 3, 48),
        ("TT", 1, 0, 24),
        ("TT", 5, 0, 120),
        ("TD", 3, 0, 72),
        ("OO", 1, 0, 48),
        ("II", 1, 0, 120),
        ("II", 7, 0, 840),
    ],
)
def test_family_orders(family, m, n, order):
    group = build_group(GroupSpec(family, m, n))
    assert group.order == order
    assert len(scalar_subgroup(group)) == 2 * m


@pytest.mark.parametrize(
    "family,m,n",
    [("DD", 2, 3), ("DD", 3, 3), ("DD", 3, 1), ("DC", 3, 2), ("DC", 2, 4),
     ("TT", 2, 0), ("TT", 3, 0), ("TD", 5, 0), ("TD", 6, 0), ("OO", 4, 0),
     ("II", 5, 0), ("XX", 1, 0), ("TT", 1, 5)],
)
def test_spec_validation_rejects_bad_parameters(family, m, n):
    with pytest.raises(ConstraintError):
        GroupSpec(family, m, n).validate()


def test_free_action_examples():
    assert verify_free_action(build_group(GroupSpec("DD", 3, 2)))
    assert verify_free_action(build_group(GroupSpec("II", 1)))
    # diag(1, -1) fixes (1, 0): not free.
    g = UnitaryElement(((1, 0), (0, -1)))
    bad = FiniteGroup.from_generators(
        [g], lambda a, b: a * b, UnitaryElement(((1, 0), (0, 1))), lambda k: k, 8
    )
    assert not verify_free_action(bad)
    trivial = FiniteGroup.from_generators(
        [], lambda a, b: a * b, UnitaryElement(((1, 0), (0, 1))), lambda k: k, 2
    )
    assert verify_free_action(trivial)


def test_eigen_angles_examples():
    mu = root_of_unity(1, 10)
    scal = UnitaryElement(((mu, 0), (0, mu)), check=False)
    assert eigen_angles(scal) == (mu, mu)
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    assert eigen_angles(minus) == (-CyclotomicNumber.one(), -CyclotomicNumber.one())
    _, y = binary_dihedral_generators(4)
    lams = set(eigen_angles(y))
    assert lams == {root_of_unity(1, 8), root_of_unity(-1, 8)}


def test_eigen_angles_inverse_pairs():
    group = build_group(GroupSpec("DD", 3, 2))
    for k in group.keys[:12]:
        lam = set(eigen_angles(group.to_matrix(k)))
        inv = group.inverse(k)
        expected = {v.conjugate() for v in eigen_angles(group.to_matrix(inv))}
        assert lam == expected


def test_conjugacy_classes():
    t = build_binary_polyhedral("T")
    classes = t.conjugacy_classes()
    assert len(classes) == 7
    assert sum(len(c) for c in classes) == 24
    assert all(24 % len(c) == 0 for c in classes)
    c6 = build_binary_polyhedral("C", 6)
    assert len(c6.conjugacy_classes()) == 6
    # central element: singleton class
    group = build_group(GroupSpec("DD", 3, 2))
    minus = next(k for k in group.keys if group.to_matrix(k) == UnitaryElement(((-1, 0), (0, -1))))
    classes = group.conjugacy_classes()
    idx = group.index[minus]
    assert [idx] in classes


@pytest.mark.parametrize(
    "family,m,n,factors",
    [
        ("DD", 3, 2, (2, 6)),     # Z_m + Z_2 + Z_2 for n even
        ("DD", 5, 4, (2, 10)),
        ("DD", 1, 3, (4,)),       # Z_4m for n odd
        ("DD", 3, 5, (12,)),
        ("DC", 2, 3, (8,)),
        ("II", 1, 0, ()),
        ("II", 7, 0, (7,)),
        ("TT", 1, 0, (3,)),
        ("TD", 3, 0, (9,)),
        ("OO", 1, 0, (2,)),
    ],
)
def test_abelianization(family, m, n, factors):
    group = build_group(GroupSpec(family, m, n))
    ab = group.abelianization()
    assert ab.factors == factors
    assert ab.group_order * len(group.commutator_subgroup()) == group.order


def test_det_character():
    spec = GroupSpec("DD", 3, 2)
    group = build_group(spec)
    theta = det_character(group)
    assert theta.is_multiplicative()
    h = group.gens[0]
    assert theta.value(h) == root_of_unity(1, 3)  # mu_{2m}^2 = mu_m
    x = group.gens[1]
    assert theta.value(x) == 1  # SU(2) part has det 1
    minus = next(k for k in group.keys if group.to_matrix(k) == UnitaryElement(((-1, 0), (0, -1))))
    assert theta.value(minus) == 1


def test_unitarity_is_enforced():
    with pytest.raises(ConstraintError):
        UnitaryElement(((1, 1), (0, 1)))


def test_model_matches_matrix_closure():
    # The compact scalar*atom model must reproduce the honest matrix group.
    for spec in (GroupSpec("DD", 3, 2), GroupSpec("DC", 2, 3), GroupSpec("TT", 1), GroupSpec("TD", 3)):
        group = build_group(spec)
        mats = {group.to_matrix(k) for k in group.keys}
        assert len(mats) == spec.order
        for k in group.keys[:20]:
            for k2 in group.keys[:10]:
                assert group.to_matrix(group.mult(k, k2)) == group.to_matrix(k) * group.to_matrix(k2)


def test_model_eigen_exponents_match_matrices():
    for spec in (GroupSpec("DD", 3, 4), GroupSpec("DC", 2, 3), GroupSpec("OO", 1), GroupSpec("TD", 3)):
        model = _model.family_model(spec)
        count = 0
        for key in model.elements():
            e1, e2 = model.eigen_exps(key)
            lams = {root_of_unity(e1, model.N), root_of_unity(e2, model.N)}
            assert lams == set(eigen_angles(model.to_matrix(key)))
            count += 1
            if count >= 40:
                break


def test_model_rho_exponents_match_character():
    from ellsw.bundle import rho

    for spec in (GroupSpec("DD", 3, 2), GroupSpec("DC", 2, 3), GroupSpec("TD", 3), GroupSpec("TT", 1)):
        model = _model.family_model(spec)
        group = build_group(spec)
        character = rho(spec, group)
        for key in group.keys:
            expect = root_of_unity(model.rho_exp_2m(key), 2 * spec.m)
            assert character.value(key) == expect, (spec, key)


def test_group_report_shape():
    from ellsw.groups import group_report

    report = group_report(build_group(GroupSpec("DD", 3, 2)))
    assert report["order"] == 24
    assert report["family"] == "DD"
    assert report["scalar_order"] == 6
    assert isinstance(report["abelianization"], list)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec("DD", 3, 4), GroupSpec("DC", 2, 3), GroupSpec("TT", 1),
     GroupSpec("TD", 3), GroupSpec("OO", 1), GroupSpec("II", 1)],
    ids=str,
)
def test_model_element_enumeration_equals_closure(spec):
    # The structural element domain and the breadth-first closure must agree
    # as sets of canonical keys, not just in cardinality.
    model = _model.family_model(spec)
    group = build_group(spec)
    assert set(model.elements()) == set(group.keys)


CRITERION_6_SPECS = [
    GroupSpec(f, m, n)
    for f, m, n in (
        ("DD", 1, 2), ("DD", 1, 3), ("DC", 2, 3), ("DC", 2, 5), ("TT", 1, 0), ("TT", 5, 0),
        ("TD", 3, 0), ("TD", 9, 0), ("OO", 1, 0), ("OO", 5, 0), ("II", 1, 0), ("II", 7, 0),
    )
]


def _orders_by_matrix_powers(mats):
    """Order of each matrix by multiplying g, g^2, ... until the identity.

    A walk from g also settles every power of g (ord g^j = d / gcd(j, d)),
    so each cyclic subgroup is walked once.
    """
    index = {m: i for i, m in enumerate(mats)}
    orders = [0] * len(mats)
    for i, g in enumerate(mats):
        if orders[i]:
            continue
        powers = [g]
        while not powers[-1].is_identity():
            powers.append(powers[-1] * g)
        d = len(powers)
        for j, p in enumerate(powers, start=1):
            orders[index[p]] = d // math.gcd(j, d)
    return orders


@pytest.mark.parametrize("spec", CRITERION_6_SPECS, ids=str)
def test_eigen_search_matches_matrix_power_order(spec):
    mats = build_group(spec).matrices()
    for g, expect in zip(mats, _orders_by_matrix_powers(mats)):
        d, a, b = eigen_exponents(g)
        assert d == expect == g.matrix_order(), g
        assert a <= b
        assert root_of_unity(a, d) + root_of_unity(b, d) == g.trace()
        assert root_of_unity(a + b, d) == g.det()


def test_matrix_order_rejects_infinite_order():
    # A rotation whose angle has cosine 3/5 is unitary but of infinite order.
    from fractions import Fraction

    from ellsw.errors import InternalInvariantError

    c, s = Fraction(3, 5), Fraction(4, 5)
    g = UnitaryElement(((c, -s), (s, c)))
    with pytest.raises(InternalInvariantError):
        g.matrix_order()
