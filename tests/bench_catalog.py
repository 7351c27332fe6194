"""Peak memory of the catalog passes of `ellsw swdim --sweep --max-order 16000`:
the write pass to a fresh catalog, then the verify pass over it, each in a
fresh interpreter that reports its own peak resident set.  The verify pass
keeps one offset per line and one line number per swept spec, not the
records' text or specs of its own, so its peak must stay within 1.10x the
write pass's.

The peak is Linux's `VmHWM`, not `ru_maxrss`: the kernel carries a
spawning process's peak into its child's `ru_maxrss` across fork and exec,
so a child of this test process would read at least this process's size.

    PYTHONPATH=src python -m pytest -s tests/bench_catalog.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# One `main` call with its rows sent to the null device; prints the exit
# code and the process's peak resident set in KiB.
ONE_PASS = """
import contextlib, os, sys
from ellsw.cli import main
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_mb(catalog):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["swdim", "--sweep", "--max-order", "16000", "--catalog", str(catalog)]
    done = subprocess.run(
        [sys.executable, "-c", ONE_PASS, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    code, kib = done.stdout.split()
    assert int(code) == 0, done.stderr
    return int(kib) / 1024


def test_verify_pass_peaks_near_the_write_pass(tmp_path):
    catalog = tmp_path / "records.jsonl"
    write = _peak_mb(catalog)
    verify = _peak_mb(catalog)
    ratio = verify / write
    print(
        f"\n[catalog 16000] {catalog.stat().st_size} bytes; write pass {write:.1f} MB, "
        f"verify pass {verify:.1f} MB peak, ratio {ratio:.2f}"
    )
    assert ratio <= 1.10, ratio
