import copy
import itertools
import math
import pickle
import random
from collections import Counter

import pytest

from ellsw.cyclo import CyclotomicNumber, root_of_unity
from ellsw.errors import ConstraintError
from ellsw.groups import (
    GroupSpec,
    UnitaryElement,
    build_binary_polyhedral,
    build_group,
    eigen_angles,
    eigen_exponents,
    scalar_subgroup,
    verify_free_action,
    _matrix_group,
)
from ellsw import _model


def _binary(kind, n):
    """The binary polyhedral group of a kind: T, O and I from
    build_binary_polyhedral, the binary dihedral group D*_4n ("D") as family
    DD with m = 1, and the cyclic group of order n ("C") closed from
    diag(zeta_n, zeta_n^-1)."""
    if kind == "D":
        return build_group(GroupSpec("DD", 1, n))
    if kind == "C":
        g = UnitaryElement(((root_of_unity(1, n), 0), (0, root_of_unity(-1, n))), check=False)
        return _matrix_group([g], 2 * n)
    return build_binary_polyhedral(kind)


@pytest.mark.parametrize(
    "kind,n,order",
    [("D", 2, 8), ("D", 3, 12), ("D", 5, 20), ("T", 0, 24), ("O", 0, 48), ("I", 0, 120), ("C", 7, 7)],
)
def test_binary_polyhedral_orders(kind, n, order):
    assert _binary(kind, n).order == order


@pytest.mark.parametrize("kind", ["C", "D", "X"])
def test_build_binary_polyhedral_builds_only_t_o_i(kind):
    with pytest.raises(ConstraintError):
        build_binary_polyhedral(kind)


def test_unitary_power_matches_repeated_multiplication():
    group = build_binary_polyhedral("T")
    identity = UnitaryElement(((1, 0), (0, 1)))
    for g in (group.to_matrix(k) for k in group.gens):  # of orders 4 and 6
        expected = identity  # g^k
        for k in range(13):
            assert g**k == expected
            expected = expected * g
    assert g**0 == identity and g**6 == identity
    with pytest.raises(ValueError):
        g**-1


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_dd1_is_the_binary_dihedral_group(n):
    # D*_4n = <x, y | x^2 = y^n = (xy)^2 = -1>, of order 4n.
    group = build_group(GroupSpec("DD", 1, n))
    x, y = (group.to_matrix(g) for g in group.gens[1:])
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    assert x**2 == y**n == (x * y) ** 2 == minus
    assert group.order == 4 * n
    assert verify_free_action(group)


def test_octahedral_cyclic_subgroup_structure():
    group = build_binary_polyhedral("O")
    minus = next(k for k in group.keys if group.to_matrix(k) == UnitaryElement(((-1, 0), (0, -1))))
    subs = {8: set(), 6: set(), 4: set()}
    for g in group.keys:
        d = group.element_order(g)
        if d in subs:
            sub = []
            p = g
            while p != group.identity:
                sub.append(p)
                p = group.mult(p, g)
            sub.append(group.identity)
            subs[d].add(frozenset(sub))
    # Keep only maximal cyclic subgroups.
    assert len(subs[8]) == 3
    six = {s for s in subs[6] if not any(s < t for t in subs[8])}
    four = {s for s in subs[4] if not any(s < t for t in subs[8] | subs[6])}
    assert len(six) == 4
    assert len(four) == 6
    core = {group.identity, minus}
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
    sub = scalar_subgroup(group)
    assert len(sub) == 2 * m
    assert sub.element_order(sub.gens[0]) == 2 * m


def test_scalar_subgroup_needs_a_family_group():
    with pytest.raises(ConstraintError):
        scalar_subgroup(build_binary_polyhedral("T"))


@pytest.mark.parametrize(
    "family,m,n",
    [("DD", 2, 3), ("DD", 3, 3), ("DD", 3, 1), ("DC", 3, 2), ("DC", 2, 4),
     ("TT", 2, 0), ("TT", 3, 0), ("TD", 5, 0), ("TD", 6, 0), ("OO", 4, 0),
     ("II", 5, 0), ("XX", 1, 0), ("TT", 1, 5),
     # not a plain int: a string, a float, a bool, None
     ("DD", "1", 2), ("DD", 1.0, 2), ("DD", True, 2), ("DD", 1, 2.0),
     ("TT", 5, None), ("II", None, 0), (["DD"], 1, 2)],
)
def test_spec_validation_rejects_bad_parameters(family, m, n):
    with pytest.raises(ConstraintError):
        GroupSpec(family, m, n)


def test_free_action_examples():
    assert verify_free_action(build_group(GroupSpec("DD", 3, 2)))
    assert verify_free_action(build_group(GroupSpec("II", 1)))
    # diag(1, -1) fixes (1, 0): not free.
    g = UnitaryElement(((1, 0), (0, -1)))
    bad = _matrix_group([g], 8)
    assert not verify_free_action(bad)
    trivial = _matrix_group([], 2)
    assert verify_free_action(trivial)


def test_eigen_angles_examples():
    mu = root_of_unity(1, 10)
    scal = UnitaryElement(((mu, 0), (0, mu)), check=False)
    assert eigen_angles(scal) == (mu, mu)
    minus = UnitaryElement(((-1, 0), (0, -1)), check=False)
    assert eigen_angles(minus) == (-CyclotomicNumber.one(), -CyclotomicNumber.one())
    d4 = _binary("D", 4)
    y = d4.to_matrix(d4.gens[2])  # diag(zeta_8, zeta_8^-1)
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
    c6 = scalar_subgroup(build_group(GroupSpec("DD", 3, 2)))
    assert len(c6.conjugacy_classes()) == 6
    # central element: singleton class
    group = build_group(GroupSpec("DD", 3, 2))
    minus = next(k for k in group.keys if group.to_matrix(k) == UnitaryElement(((-1, 0), (0, -1))))
    classes = group.conjugacy_classes()
    assert [minus] in classes


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


def _quotient_order_histogram(group, sub):
    """Number of keys of each order in G/sub, each order found by
    multiplying the key by itself until the power lands in `sub`."""
    hist = Counter()
    for k in group.keys:
        g, d = k, 1
        while g not in sub:
            g = group.mult(g, k)
            d += 1
        hist[d] += 1
    return hist


def _cyclic_product_histogram(factors):
    """Number of elements of each order in Z_d1 x ... x Z_dr, enumerated."""
    hist = Counter()
    for a in itertools.product(*(range(d) for d in factors)):
        hist[math.lcm(*(d // math.gcd(x, d) for x, d in zip(a, factors)))] += 1
    return hist


def test_abelianization_matches_the_quotient_element_orders():
    # The element orders of a finite abelian group determine its invariant
    # factors, so the returned factors must give exactly the orders in G/[G,G].
    from ellsw.swindex import sweep_specs

    specs = sweep_specs(400)
    assert len(specs) == 271 and {s.family for s in specs} == {"DD", "DC", "TT", "TD", "OO", "II"}
    for spec in specs:
        group = build_group(spec)
        sub = group.commutator_subgroup()
        expected = _cyclic_product_histogram(group.abelianization().factors)
        got = _quotient_order_histogram(group, sub)
        assert got == {d: len(sub) * c for d, c in expected.items()}, spec


def test_classes_and_commutators_skip_only_central_generators():
    # Conjugating by a scalar generator fixes every key, so the classes and
    # [G, G] must be those found by conjugating with every generator.
    from ellsw.swindex import sweep_specs

    groups = [build_binary_polyhedral(kind) for kind in "TOI"]
    groups += [build_group(spec) for spec in sweep_specs(400)]
    for group in groups:
        ref = copy.copy(group)
        ref._noncentral_generators = lambda g=group: [(k, g.inverse(k)) for k in g.gens]
        classes = ref.conjugacy_classes()
        assert group.conjugacy_classes() == classes, group.spec
        assert group.class_count() == ref.class_count() == len(classes), group.spec
        assert group.commutator_subgroup() == ref.commutator_subgroup(), group.spec


def test_class_count_matches_the_listed_classes():
    # The block walk against the per-key walk.
    from ellsw.swindex import sweep_specs

    groups = [build_binary_polyhedral(kind) for kind in "TOI"]
    groups.append(scalar_subgroup(build_group(GroupSpec("DD", 5, 3))))
    specs = sweep_specs(1200)
    assert len(specs) == 1015
    for group in itertools.chain(groups, map(build_group, specs)):
        assert group.class_count() == len(group.conjugacy_classes()), group.spec


def test_class_count_counts_commuting_pairs():
    # Burnside: G has k |G| commuting pairs (a, b), k its number of classes.
    # Counting the pairs shares no code with either conjugation walk.
    from ellsw.swindex import sweep_specs

    groups = [build_binary_polyhedral(kind) for kind in "TOI"]
    for group in itertools.chain(groups, map(build_group, sweep_specs(120))):
        mult = group.mult
        pairs = sum(mult(a, b) == mult(b, a) for a in group.keys for b in group.keys)
        assert pairs == group.class_count() * group.order, group.spec


def test_scalar_subgroup_has_singleton_classes():
    group = build_group(GroupSpec("DD", 5, 3))
    sub = scalar_subgroup(group)
    assert sub.gens and all(sub.is_scalar_key(g) for g in sub.gens)
    assert sub.conjugacy_classes() == [[k] for k in sub.keys]
    assert sub.commutator_subgroup() == {sub.identity}


def test_abelianization_of_the_scalars_alone():
    # No generator outside block 0: A is the image of the 10 scalars.
    assert scalar_subgroup(build_group(GroupSpec("DD", 5, 3))).abelianization().factors == (10,)


@pytest.mark.parametrize("kind,factors", [("T", (3,)), ("O", (2,)), ("I", ())])
def test_table_group_abelianization(kind, factors):
    # A table group walks with K = 1, every key a block of its own.
    assert build_binary_polyhedral(kind).abelianization().factors == factors


@pytest.mark.parametrize(
    "spec,factors",
    [
        (GroupSpec("DD", 1000001, 2), (2, 2000002)),  # 4 blocks of K = 2000002 keys
        (GroupSpec("DC", 200000, 3), (800000,)),  # 6 blocks of K = 400000 keys
    ],
    ids=str,
)
def test_abelianization_with_blocks_far_larger_than_their_count(spec, factors):
    assert build_group(spec).abelianization().factors == factors


@pytest.mark.parametrize(
    "source",
    [("C", 7), ("D", 5), ("T", 0), ("O", 0), ("I", 0),
     GroupSpec("DD", 3, 4), GroupSpec("DC", 2, 3), GroupSpec("TD", 9)],
    ids=str,
)
def test_powers_inverse_and_order_on_every_key(source):
    if isinstance(source, GroupSpec):
        group = build_group(source)
    else:
        group = _binary(*source)
    for k in group.keys:
        walk = list(group.powers(k))
        assert walk[0] == k and walk[-1] == 0 and 0 not in walk[:-1], k
        assert walk[1:] == [group.mult(g, k) for g in walk[:-1]], k
        assert group.mult(k, group.inverse(k)) == 0, k
        assert group.element_order(k) == len(walk) == group.to_matrix(k).matrix_order(), k


def test_unitarity_is_enforced():
    with pytest.raises(ConstraintError):
        UnitaryElement(((1, 1), (0, 1)))


@pytest.mark.parametrize(
    "make",
    [lambda: root_of_unity(1, 5), lambda: build_group(GroupSpec("DD", 3, 4)).to_matrix(5)],
    ids=["cyclotomic", "unitary"],
)
@pytest.mark.parametrize(
    "round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_immutable_values_copy_and_pickle(make, round_trip):
    value = make()
    other = round_trip(value)
    assert other == value and hash(other) == hash(value)


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
    # One spec of each family, on every key; TT, OO and II run the TD code.
    for spec in (GroupSpec("DD", 3, 4), GroupSpec("DC", 2, 3), GroupSpec("TT", 5),
                 GroupSpec("TD", 3), GroupSpec("OO", 1), GroupSpec("II", 7)):
        model = _model.family_model(spec)
        for key in model.elements():
            e1, e2 = model.eigen_exps(key)
            lams = {root_of_unity(e1, model.N), root_of_unity(e2, model.N)}
            assert lams == set(eigen_angles(model.to_matrix(key))), (spec, key)


def test_model_rho_exponents_match_character():
    from ellsw.bundle import rho

    for spec in (GroupSpec("DD", 3, 2), GroupSpec("DC", 2, 3), GroupSpec("TT", 1),
                 GroupSpec("TD", 3), GroupSpec("OO", 5), GroupSpec("II", 7)):
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


def _commutator_subgroup_by_products(group):
    """The earlier definition of [G, G], kept as a reference: the seeds
    closed under conjugation by the generators and under products with
    every element found so far."""
    gens = group.gens or group.keys
    seeds = set()
    for a in gens:
        ai = group.inverse(a)
        for b in gens:
            bi = group.inverse(b)
            seeds.add(group.mult(group.mult(ai, bi), group.mult(a, b)))
    sub = {group.identity}
    frontier = set(seeds) - sub
    sub |= frontier
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                c = group.mult(group.mult(group.inverse(g), a), g)
                if c not in sub:
                    new.add(c)
            for b in list(sub):
                p = group.mult(a, b)
                if p not in sub and p not in new:
                    new.add(p)
        sub |= new
        frontier = new
    return sub


def test_commutator_subgroup_matches_reference():
    from ellsw.swindex import sweep_specs

    specs = sweep_specs(96)
    assert {s.family for s in specs} == {"DD", "DC", "TT", "TD", "OO"}
    for spec in specs:
        group = build_group(spec)
        assert group.commutator_subgroup() == _commutator_subgroup_by_products(group), spec
    for kind, n in (("T", 0), ("O", 0), ("I", 0), ("D", 5)):
        group = _binary(kind, n)
        assert group.commutator_subgroup() == _commutator_subgroup_by_products(group), kind


@pytest.mark.parametrize("kind,n", [("C", 7), ("D", 5), ("T", 0), ("O", 0), ("I", 0)])
def test_binary_polyhedral_dense_keys_multiply_like_matrices(kind, n):
    group = _binary(kind, n)
    assert group.keys == range(group.order)
    assert group.identity == 0 and group.to_matrix(0).is_identity()
    mats = group.matrices()
    assert len(set(mats)) == group.order
    if kind == "I":
        rng = random.Random(5)
        pairs = [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(300)]
    else:
        pairs = [(a, b) for a in group.keys for b in group.keys]
    for a, b in pairs:
        assert group.to_matrix(group.mult(a, b)) == mats[a] * mats[b], (a, b)
