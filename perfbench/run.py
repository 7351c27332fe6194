"""Benchmark runner for ellsw: one workload per fresh interpreter.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, and the run fails (exit 2, no result) without it.

With ``--trace 0`` the run measures set-up several times in fresh
interpreters, then repeats the workload's iteration until ``--seconds`` have
passed and reports the end-to-end metrics as medians over iterations, each
figure divided by the machine speed index measured while it ran (see
speedprobe.py; the raw figures are printed beside them).  With
``--trace 1`` it makes one untraced iteration and then one traced iteration
of the same inputs, and reports the per-layer metrics; the ratio of the two
iterations' timed wall time is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit, and give the environment.  A full result,
and in a traced run the spans, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedprobe import REFERENCE_NS, SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
# What every polyhedral CLI call pays before its first answer: importing the
# package and building the three binary polyhedral SU(2) tables.  The child
# samples the machine speed meanwhile and reports its probe time and speed
# index (see speedprobe.py).
SETUP_CHILD = (
    "import time\n"
    "from speedprobe import REFERENCE_NS, SpeedProbe, time_work_ns\n"
    "with SpeedProbe(always_active=True) as probe:\n"
    "    from ellsw import _model\n"
    "    for kind in 'TOI':\n"
    "        _model.su2_table(kind)\n"
    "    ready = time.monotonic_ns()\n"
    "probe_ns, count = probe.total_ns, probe.count\n"
    "index = probe_ns / count / REFERENCE_NS if count else time_work_ns() / REFERENCE_NS\n"
    "print(ready, probe_ns, index)\n"
)

# (metric, unit, better).  phase1/phase2 are each workload's two rates; the
# printed lines name them per workload (Sweep.metric_names and so on).
END_TO_END = (
    ("phase1_per_s", "1/s", "higher"),
    ("phase2_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Span -> fields reported from the traced iteration.
SPAN_METRICS = (
    ("cli.main", ("self_s",)),
    ("swindex.sw_dimension_report", ("calls", "self_s", "p50_us", "p99_us")),
    ("swindex.closed_form_d_E", ("self_s",)),
    ("swindex.sum_chi_by_elements", ("calls", "self_s")),
    ("swindex.chi", ("calls", "self_s")),
    ("rootsum.add_scaled", ("calls", "self_s")),
    ("rootsum.mul", ("calls", "self_s")),
    ("rootsum.rational_value", ("calls", "self_s")),
    ("model.validate_free_action", ("self_s",)),
    ("model.family_model", ("calls", "self_s")),
    ("model.mult", ("calls", "self_s")),
    ("seifert.normalized_invariant", ("calls", "self_s")),
    ("groups.build_group", ("calls", "self_s", "p50_us", "p99_us")),
    ("groups.conjugacy_classes", ("self_s",)),
    ("groups.abelianization", ("self_s",)),
    ("groups.eigen_angles", ("calls", "self_s")),
    ("bundle.rho", ("self_s",)),
    ("bundle.section_equivariance_report", ("self_s",)),
    ("bundle.poly_mul", ("calls", "self_s")),
    ("cyclo.mul", ("calls", "self_s")),
    ("cyclo.add", ("calls", "self_s")),
    ("cyclo.inverse", ("calls", "self_s")),
    ("cyclo.reduced", ("calls", "self_s")),
    ("cyclo.eq", ("calls", "self_s")),
    ("cyclo.root_of_unity", ("calls", "self_s")),
    ("cyclo.euler_phi", ("calls",)),
    ("cyclo.factorize", ("calls",)),
)
MODULES = ("cli", "swindex", "rootsum", "model", "seifert", "groups", "bundle", "cyclo")
FIELD_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
               "p50_us": ("us", "lower"), "p99_us": ("us", "lower")}

PER_LAYER = (
    tuple((f"{span}.{field}",) + FIELD_UNITS[field] for span, fields in SPAN_METRICS for field in fields)
    + tuple((f"{mod}.self_s", "s", "lower") for mod in MODULES)
    + (
        ("cli.catalog_bytes", "bytes", "lower"),
        ("swindex.singular_sums.hit_ratio", "ratio", "higher"),
        ("model.su2_table.build_s", "s", "lower"),
        ("groups.closure.elements", "count", "higher"),
        ("groups.closure.new_per_product", "ratio", "higher"),
        ("cyclo.number.calls", "count", "lower"),
        ("rootsum.calls", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans_dropped", "count", "lower"),
    )
)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import ellsw from this checkout's src/, never from anywhere else."""
    if not (SRC / "ellsw" / "__init__.py").is_file():
        _fail(f"no ellsw package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ellsw

    if Path(ellsw.__file__).resolve().parent != SRC / "ellsw":
        _fail(f"imported ellsw from {ellsw.__file__}, not from {SRC}")
    return ellsw


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    # The ceiling keeps git from taking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def measure_setup(repeats):
    """Seconds from spawning a fresh interpreter to its set-up being done,
    less the probe's time, and the speed index, per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = []
    for _ in range(repeats):
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        ready, probe_ns, index = done.stdout.split()
        out.append(((int(ready) - t0 - int(probe_ns)) / 1e9, float(index)))
    return out


def make_workload(workloads, name, seed):
    if name == "sweep":
        return workloads.Sweep(seed, workdir=str(OUT))
    return workloads.WORKLOADS[name](seed)


def run_untraced(workloads, workload, seconds, gate):
    """Iterate until `seconds` have passed.

    Returns, per phase and iteration, the raw rate and the speed index of
    the probes taken during that phase of that iteration.
    """
    raw = {phase: [] for phase in workload.phases}
    index = {phase: [] for phase in workload.phases}
    start = time.monotonic()
    with SpeedProbe() as probe:
        while True:
            clock = workloads.Clock(probe=probe)
            units = workload.iteration(clock, gate)
            for phase in workload.phases:
                raw[phase].append(units[phase] / (clock.phase_ns[phase] / 1e9))
                probe_ns, count = clock.phase_probe[phase]
                index[phase].append(probe_ns / count / REFERENCE_NS if count else None)
            if time.monotonic() - start >= seconds:
                break
    # A phase shorter than the probe interval may hold no probe; it takes
    # the mean index of the run.
    known = [i for values in index.values() for i in values if i is not None]
    fallback = statistics.mean(known) if known else 1.0
    for values in index.values():
        values[:] = [fallback if i is None else i for i in values]
    return raw, index


def run_traced(ellsw, workloads, workload, gate):
    """One untraced, then one traced iteration of the same inputs; returns
    the per-layer metrics of the traced one, and the tracer."""
    # The SU(2) tables are built here, untraced, so build_s compares with setup_s.
    t0 = time.perf_counter_ns()
    for kind in "TOI":
        ellsw._model.su2_table(kind)
    su2_build_s = (time.perf_counter_ns() - t0) / 1e9
    tracer = Tracer(ellsw)

    untraced = workloads.Clock()
    workload.iteration(untraced, gate)
    cache = ellsw.swindex._singular_sums
    before = cache.cache_info()
    traced = workloads.Clock(tracer)
    workload.iteration(traced, gate)
    after = cache.cache_info()

    metrics = {}
    for span, fields in SPAN_METRICS:
        for field in fields:
            if field == "calls":
                value = tracer.calls(span)
            elif field == "self_s":
                value = tracer.self_s(span)
            else:
                value = tracer.percentile_us(span, 0.5 if field == "p50_us" else 0.99)
            metrics[f"{span}.{field}"] = value
    module_self = tracer.module_self_s()
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = module_self.get(mod, 0.0)
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    counters = tracer.counters
    products = tracer.edges.get(("groups.from_generators", "model.mult"), 0)
    wall = traced.total_s()
    metrics.update({
        "cli.catalog_bytes": getattr(workload, "catalog_bytes", 0),
        "swindex.singular_sums.hit_ratio": (after.hits - before.hits) / lookups if lookups else 0.0,
        "model.su2_table.build_s": su2_build_s,
        "groups.closure.elements": counters["groups.closure.elements"],
        "groups.closure.new_per_product": (
            (counters["groups.closure.elements"] - counters["groups.closure.groups"]) / products
            if products else 0.0
        ),
        "cyclo.number.calls": sum(tracer.calls(name) for name in tracer.cyclotomic_spans()),
        "rootsum.calls": sum(
            calls for name, (calls, _) in tracer.stats.items() if name.startswith("rootsum.")
        ),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced.total_s(),
        "trace.overhead_ratio": wall / untraced.total_s(),
        "trace.unattributed_s": wall - sum(module_self.values()),
        "trace.spans_dropped": tracer.dropped[0],
    })
    return metrics, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "closure", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ellsw = import_package()
    import workloads

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    gate = workloads.Gate()
    workload = make_workload(workloads, args.workload, args.seed)
    result = {"workload": args.workload, "env": env}

    if args.trace:
        metrics, tracer = run_traced(ellsw, workloads, workload, gate)
        tracer.write_spans(OUT / f"spans-{tag}.jsonl")
        named = {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}
    else:
        setup = measure_setup(SETUP_REPEATS)
        for kind in "TOI":
            ellsw._model.su2_table(kind)
        raw, index = run_untraced(workloads, workload, args.seconds, gate)
        phase1, phase2 = workload.phases
        # Reported figures are divided by the speed index: rates times it,
        # times over it (speedprobe.py says why); raw figures are printed too.
        normalized = {
            phase: [r * i for r, i in zip(raw[phase], index[phase])] for phase in workload.phases
        }
        metrics = {
            "phase1_per_s": statistics.median(normalized[phase1]),
            "phase2_per_s": statistics.median(normalized[phase2]),
            "setup_s": statistics.median(t / i for t, i in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        name1, name2 = workload.metric_names
        named = {
            name1: (metrics["phase1_per_s"], "1/s"),
            name2: (metrics["phase2_per_s"], "1/s"),
            "setup_s": (metrics["setup_s"], "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            f"raw.{name1}": (statistics.median(raw[phase1]), "1/s"),
            f"raw.{name2}": (statistics.median(raw[phase2]), "1/s"),
            "raw.setup_s": (statistics.median(t for t, _ in setup), "s"),
            "speed_index": (statistics.median(i for values in index.values() for i in values), "ratio"),
        }
        result.update(
            iterations=len(raw[phase1]), raw_rates=raw, speed_index=index, setup=setup
        )

    env["loadavg_end"] = list(os.getloadavg())
    named["failed_frac"] = (gate.failed_frac, "ratio")
    result.update(named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  attempted=gate.attempted, failed=gate.failed, witnesses=gate.witnesses)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    for name, (value, unit) in named.items():
        print(f"{args.workload}  {name:<44} {value:>16.6g} {unit}")
    for witness in gate.witnesses:
        print(f"FAILED CHECK: {witness}")
    print("env " + json.dumps(env, separators=(",", ":")))
    unit_of = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of},
    }, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
