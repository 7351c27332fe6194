"""The section check at scale: `verify_section_equivariance`, the transfer
route, on every spec of the `|G| <= 4000` pool (4107 specs), each building
its group from scratch and comparing the transfer with the generator table
on the three generators.  All must pass, within 30 s.  Then one check each
on DD(100001, 2) and DD(1000001, 2), whose scalar orders 2m are large.

    PYTHONPATH=src python -m pytest tests/bench_section.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.
"""

import time

import pytest

from ellsw.bundle import verify_section_equivariance
from ellsw.groups import GroupSpec
from ellsw.swindex import sweep_specs


def test_transfer_check_on_the_pool():
    specs = sweep_specs(4000)
    assert len(specs) == 4107
    start = time.perf_counter()
    failures = [spec for spec in specs if not verify_section_equivariance(spec)]
    elapsed = time.perf_counter() - start
    print(f"\n[section pool] {len(specs)} specs in {elapsed:.1f} s")
    assert failures == []
    assert elapsed < 30, elapsed


@pytest.mark.parametrize("m", (100001, 1000001))
def test_transfer_check_on_a_large_dihedral(m):
    # |G| = 8m keys in 4 blocks of K = 2m: the transfer sums 4 residues
    # mod 2m per generator.
    start = time.perf_counter()
    assert verify_section_equivariance(GroupSpec("DD", m, 2))
    elapsed = time.perf_counter() - start
    print(f"\n[section DD({m}, 2)] {elapsed:.2f} s")
    assert elapsed < 5, elapsed
