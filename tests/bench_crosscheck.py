"""Microbenchmarks of the per-element cross-check layers: the per-element
`chi` sum (`sum_chi_by_elements`, closure plus one cyclotomic `chi` per
element) on DD(7,2), OO(7) and II(1), and on DD(7,29) and DC(8,25), where
the high field degree makes the inversions dominate; and the section check
by the transfer (`verify_section_equivariance`, which builds the group and
`rho` itself) on DD(1,3) and TT(1).

    PYTHONPATH=src python -m pytest tests/bench_crosscheck.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.
"""

import pytest

from ellsw.bundle import verify_section_equivariance
from ellsw.groups import GroupSpec
from ellsw.swindex import s_breakdown, sum_chi_by_elements

CHI_SPECS = [
    GroupSpec("DD", 7, 2),  # |G| = 56
    GroupSpec("OO", 7),  # 336
    GroupSpec("II", 1),  # 120
    GroupSpec("DD", 7, 29),  # 812
    GroupSpec("DC", 8, 25),  # 800
]

SECTION_SPECS = [
    GroupSpec("DD", 1, 3),  # |G| = 12
    GroupSpec("TT", 1),  # 24
]


@pytest.mark.parametrize("spec", CHI_SPECS, ids=str)
def test_sum_chi_by_elements(benchmark, spec):
    total = benchmark(sum_chi_by_elements, spec)
    assert total == sum(s_breakdown(spec).values())


@pytest.mark.parametrize("spec", SECTION_SPECS, ids=str)
def test_verify_section_equivariance(benchmark, spec):
    assert benchmark(verify_section_equivariance, spec)
