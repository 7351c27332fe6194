"""Microbenchmarks of the per-element cross-check layers: the per-element
`chi` sum (`sum_chi_by_elements`, closure plus one cyclotomic `chi` per
cyclic subgroup) on DD(7,2), OO(7) and II(1), on DD(7,29), DC(8,25) and
DC(2,241), where the high field degree makes the inversions dominate, and on
DD(1,935), whose traces and determinants are roots of order 1870; the
section check by the transfer (`verify_section_equivariance`, which builds
the group and `rho` itself) on DD(1,3) and TT(1); and, once, every label of
the per-element route against the engine on all 1,015 specs with
`|G| <= 1200` and all 480 polyhedral specs to 16000, in a fresh interpreter
that reports its wall time and its peak resident set (Linux's `VmHWM`).

    PYTHONPATH=src python -m pytest -s tests/bench_crosscheck.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.  CI runs it with `--benchmark-disable`, each
benchmark once as a test: the seven `chi` specs include DD(1,935) and
DC(2,241), which the every-label check, stopping at `|G|` = 1200 in DD and
DC, skips.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellsw.bundle import verify_section_equivariance
from ellsw.groups import GroupSpec
from ellsw.swindex import s_breakdown, sum_chi_by_elements

SRC = Path(__file__).resolve().parents[1] / "src"

CHI_SPECS = [
    GroupSpec("DD", 7, 2),  # |G| = 56
    GroupSpec("OO", 7),  # 336
    GroupSpec("II", 1),  # 120
    GroupSpec("DD", 7, 29),  # 812
    GroupSpec("DC", 8, 25),  # 800
    GroupSpec("DC", 2, 241),  # 1928, sparse denominators
    GroupSpec("DD", 1, 935),  # 3740, traces and determinants at order 1870
]

# Prints the number of specs compared, the seconds taken, the peak resident
# set in KiB, then each spec whose labels differ.
EVERY_LABEL = """
import time
from ellsw.swindex import s_breakdown, s_breakdown_by_elements, sweep_specs
start = time.perf_counter()
specs = sweep_specs(1200)
specs += [s for s in sweep_specs(16000) if s.family not in ("DD", "DC") and s.order > 1200]
bad = [s for s in specs if list(s_breakdown(s).items()) != list(s_breakdown_by_elements(s).items())]
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(len(specs), seconds, peak, *(str(s).replace(" ", "") for s in bad))
"""

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


def test_every_label_of_the_per_element_route_to_1200_and_polyhedral_to_16000():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", EVERY_LABEL], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    count, seconds, kib, *mismatches = done.stdout.split()
    seconds, peak_mb = float(seconds), int(kib) / 1024
    print(f"\n[every label] {count} specs in {seconds:.1f} s, {peak_mb:.1f} MB peak")
    assert int(count) == 1015 + 480 - 36  # 36 polyhedral specs have |G| <= 1200
    assert mismatches == []
    assert seconds <= 90 and peak_mb <= 100  # the targets of this check
