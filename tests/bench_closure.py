"""Microbenchmarks of the family closure: `build_group` plus
`scalar_subgroup` on one mid-size spec per family, `group_report`
(conjugacy classes, commutator subgroup, abelianization) on specs of every
family near |G| = 800 and on three large specs, one with many blocks of
few keys and two with few blocks of many, the per-key class list
(`conjugacy_classes`) on the largest spec of each family with |G| <= 1200,
and the SU(2) atom-table build per binary polyhedral kind.
One more case closes every spec of the `|G| <= 4000` pool once and prints
the wall time.

    PYTHONPATH=src python -m pytest tests/bench_closure.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.
"""

import time

import pytest

from ellsw import _model
from ellsw.groups import GroupSpec, build_group, group_report, scalar_subgroup
from ellsw.swindex import sweep_specs

CLOSURE_SPECS = [
    GroupSpec("DD", 7, 71),  # |G| = 1988
    GroupSpec("DC", 4, 125),  # 2000
    GroupSpec("TT", 41),  # 984
    GroupSpec("TD", 45),  # 1080
    GroupSpec("OO", 23),  # 1104
    GroupSpec("II", 11),  # 1320
]

REPORT_SPECS = [
    GroupSpec("DD", 1, 200),  # |G| = 800
    GroupSpec("DD", 7, 29),  # 812
    GroupSpec("DC", 8, 25),  # 800
    GroupSpec("DC", 2, 101),  # 808
    GroupSpec("TT", 31),  # 744
    GroupSpec("TD", 33),  # 792
    GroupSpec("OO", 17),  # 816
    GroupSpec("II", 7),  # 840
]

# The largest spec of each family with |G| <= 1200, the range where the
# tests check `conjugacy_classes` key by key (the first in sweep order on a tie).
CLASS_SPECS = [
    GroupSpec("DD", 1, 300),  # |G| = 1200
    GroupSpec("DC", 4, 75),  # 1200
    GroupSpec("TT", 49),  # 1176
    GroupSpec("TD", 45),  # 1080
    GroupSpec("OO", 25),  # 1200
    GroupSpec("II", 7),  # 840
]


def _close(spec):
    group = build_group(spec)
    return group.order, len(scalar_subgroup(group))


@pytest.mark.parametrize("spec", CLOSURE_SPECS, ids=str)
def test_closure(benchmark, spec):
    assert benchmark(_close, spec) == (spec.order, 2 * spec.m)


@pytest.mark.benchmark(disable_gc=True)
@pytest.mark.parametrize("spec", REPORT_SPECS, ids=str)
def test_group_report(benchmark, spec):
    # The group is built in setup, outside the timed call; collection is off
    # so that garbage from that build is not collected inside the timing.
    report = benchmark.pedantic(group_report, setup=lambda: ((build_group(spec),), {}), rounds=20)
    assert report["order"] == spec.order


@pytest.mark.benchmark(disable_gc=True)
@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec("DD", 1000001, 2),  # |G| = 8000008: 4 blocks of K = 2000002 keys
        GroupSpec("DD", 1, 100000),  # |G| = 400000: 200000 blocks of K = 2 keys
        GroupSpec("DC", 200000, 3),  # |G| = 2400000: 6 blocks of K = 400000 keys
    ],
    ids=str,
)
def test_group_report_large(benchmark, spec):
    report = benchmark.pedantic(group_report, setup=lambda: ((build_group(spec),), {}), rounds=3)
    assert report["order"] == spec.order


@pytest.mark.benchmark(disable_gc=True)
@pytest.mark.parametrize("spec", CLASS_SPECS, ids=str)
def test_conjugacy_classes(benchmark, spec):
    classes = benchmark.pedantic(
        lambda group: group.conjugacy_classes(), setup=lambda: ((build_group(spec),), {}), rounds=5
    )
    assert sum(map(len, classes)) == spec.order


@pytest.mark.parametrize("kind", "TOI")
def test_su2_table(benchmark, kind):
    # The uncached constructor: the binary polyhedral closure, its Cayley
    # table and the per-atom data behind the TT/TD/OO/II models.
    table = benchmark(_model._SU2Table, kind)
    assert len(table.mult) == {"T": 12, "O": 24, "I": 60}[kind]


def test_closure_over_the_pool():
    specs = sweep_specs(4000)
    assert len(specs) == 4107
    start = time.perf_counter()
    wrong = [spec for spec in specs if build_group(spec).order != spec.order]
    elapsed = time.perf_counter() - start
    print(f"\n[closure pool] {len(specs)} specs in {elapsed:.1f} s")
    assert wrong == []
