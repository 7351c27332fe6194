"""Self-check of the benchmark's output gates, at a tiny size (~10 s).

    python3 perfbench/selfcheck.py

Runs one iteration of each workload on small inputs, once with the true
expectations (every gate must pass) and once per deliberately wrong
expectation (the gates must fail, raising failed_frac above 0).  It also
checks that BENCHMARK.json declares exactly the metrics run.py reports.
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction

import run

run.import_package()
import workloads  # noqa: E402  (needs the package on sys.path first)


def _wrong_pinned():
    pinned = dict(workloads.PINNED_S)
    s0, s1, s2, s3 = pinned[("OO", 5)]
    pinned[("OO", 5)] = (s0, s1 + 1, s2, s3)
    return pinned


def _wrong_dd_abelianization(spec):
    return list(reversed(workloads.dd_abelianization(spec))) + [1]


def _wrong_engine_total(spec):
    return workloads.engine_total(spec) + Fraction(1, spec.order)


def cases(workdir):
    seed = 7
    yield "sweep, true expectations", False, workloads.Sweep(seed, workdir, max_order=600)
    yield "sweep, wrong pinned OO(5) S1", True, workloads.Sweep(
        seed, workdir, max_order=600, pinned=_wrong_pinned()
    )
    yield "sweep, one seeded drift missed", True, workloads.Sweep(
        seed, workdir, max_order=600, forget_drifts=1
    )
    small_closure = dict(closure_max=240, closure_stride=2, report_max=120)
    yield "closure, true expectations", False, workloads.Closure(seed, **small_closure)
    yield "closure, wrong DD abelianization", True, workloads.Closure(
        seed, expected_dd_abelianization=_wrong_dd_abelianization, **small_closure
    )
    small_cross = dict(chi_max=16, section_max=16)
    yield "crosscheck, true expectations", False, workloads.Crosscheck(seed, **small_cross)
    yield "crosscheck, engine total off by 1/|G|", True, workloads.Crosscheck(
        seed, expected_total=_wrong_engine_total, **small_cross
    )


def declared_metrics_match():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(n, u, b) for n, u, b in run.END_TO_END]
    want_layer = [(n, u, b) for n, u, b in run.PER_LAYER]
    got_e2e = [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]
    got_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    return got_e2e == want_e2e and got_layer == want_layer


def main():
    ok = True
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        for name, must_fail, workload in cases(workdir):
            gate = workloads.Gate()
            workload.iteration(workloads.Clock(), gate)
            caught = gate.failed > 0
            good = caught == must_fail
            ok &= good
            print(
                f"{'ok ' if good else 'BAD'}  {name:<40} failed_frac={gate.failed_frac:.6f} "
                f"({gate.failed}/{gate.attempted})"
                + (f"  first: {gate.witnesses[0]}" if gate.witnesses else "")
            )
    match = declared_metrics_match()
    ok &= match
    print(f"{'ok ' if match else 'BAD'}  BENCHMARK.json metrics match run.py")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
