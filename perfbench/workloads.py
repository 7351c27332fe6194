"""The three benchmark workloads: seeded inputs, timed calls, output gates.

Each workload object is built from a seed; the seed only chooses which
inputs are generated (which catalog records drift, which specs are
sampled, the order specs run in).  `iteration(clock, gate)` makes one pass over those inputs: it
times only calls into ellsw's public functions, inside `clock.region`, and
checks every output through `gate`.  It returns, per phase, the units of
work done, so the runner can turn phase times into rates.

Why these workloads (see README.md for the layer table):
- sweep: the headline reproduction of the paper's d(E) table through the
  CLI, with a write pass and a verify pass over the same 19795 specs.
- closure: breadth-first group closure and per-key group queries, with no
  cyclotomic or root-sum arithmetic at all.
- crosscheck: the independent per-element routes, which are almost all
  exact cyclotomic and polynomial arithmetic and barely touch the engine.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from fractions import Fraction

from ellsw import bundle, cli, groups, swindex

# ---------------------------------------------------------------------------
# shared machinery


class Gate:
    """Tally of output checks; keeps the first few failures as witnesses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.witnesses = []

    def check(self, ok, witness):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.witnesses) < 10:
                self.witnesses.append(str(witness))
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Clock:
    """Wall time of the timed regions, summed per phase.

    With a tracer, the tracer is installed only inside the regions, so the
    traced run wraps exactly the calls the untraced run times; the install
    and uninstall happen outside the measured interval.

    With a speed probe (speedprobe.SpeedProbe), the probe samples only inside
    the regions; its time is taken out of `phase_ns`, and `phase_probe`
    holds, per phase, the summed probe time and the number of probes.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.phase_ns = {}
        self.phase_probe = {}

    @contextlib.contextmanager
    def region(self, phase):
        if self.tracer is not None:
            self.tracer.install()
        mark = self.probe.begin() if self.probe is not None else None
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            probe_ns, probes = self.probe.end(mark) if mark is not None else (0, 0)
            dt = time.perf_counter_ns() - t0 - probe_ns
            if self.tracer is not None:
                self.tracer.uninstall()
            self.phase_ns[phase] = self.phase_ns.get(phase, 0) + dt
            total, count = self.phase_probe.get(phase, (0, 0))
            self.phase_probe[phase] = (total + probe_ns, count + probes)

    def total_s(self) -> float:
        return sum(self.phase_ns.values()) / 1e9


def stratified_sample(specs, stride, rng):
    """One spec from each run of `stride` specs of adjacent order, per family.

    Picking among neighbours in order keeps the family mix and the total
    size of the sample nearly the same for every seed, so a rate measured on
    one seed's sample compares with another seed's.
    """
    out = []
    for family in groups.FAMILIES:
        pool = sorted((s for s in specs if s.family == family), key=lambda s: (s.order, s.m, s.n))
        for i in range(0, len(pool), stride):
            out.append(rng.choice(pool[i : i + stride]))
    return out


# ---------------------------------------------------------------------------
# sweep: `ellsw swdim --sweep --max-order 16000` through cli.main

# S0..S3 records of the octahedral and icosahedral families, as published.
PINNED_S = {
    ("OO", 1): (0, 0, 0, 0),
    ("OO", 5): (16, -240, -160, 0),
    ("OO", 7): (20, 84, -224, -168),
    ("OO", 11): (36, 132, 0, -264),
    ("II", 1): (0, 0, 0, 0),
    ("II", 7): (32, -672, -560, 0),
    ("II", 11): (64, -1584, -880, 0),
    ("II", 13): (128, -1248, -1040, 0),
    ("II", 17): (156, -816, 0, -1020),
    ("II", 19): (308, 912, -1520, -1140),
    ("II", 23): (420, 0, 0, -1380),
    ("II", 29): (108, 1392, 0, -1740),
}

# Number of valid specs with |G| <= max order.
SWEEP_COUNTS = {16000: 19795, 600: 445}


def _record_key(rec):
    spec = rec["spec"]
    return (spec["family"], spec["m"], spec.get("n", 0))


def _mutate(rec, field):
    """Change one compared field of a catalog record (a drift)."""
    if field == "dE":
        rec["dE"] += 2
    elif field == "sum_chi":
        rec["sum_chi"] = _frac_str(Fraction(rec["sum_chi"]) + 1)
    elif field == "S":
        label = sorted(rec["S"])[0]
        rec["S"][label] = _frac_str(Fraction(rec["S"][label]) - 1)
    elif field == "seifert.b":
        rec["seifert"]["b"] += 1
    else:
        raise ValueError(field)


def _frac_str(x: Fraction) -> str:
    """A fraction as the catalog writes it."""
    return f"{x.numerator}/{x.denominator}"


class Sweep:
    """Write a fresh catalog, drift ~1% of it, and verify it back."""

    phases = ("write", "verify")
    metric_names = ("write_specs_per_s", "verify_specs_per_s")
    drift_fields = ("dE", "sum_chi", "S", "seifert.b")

    def __init__(self, seed, workdir, max_order=16000, pinned=PINNED_S, forget_drifts=0):
        rng = random.Random(f"sweep-{seed}")
        self.max_order = max_order
        self.count = SWEEP_COUNTS[max_order]
        self.pinned = pinned
        self.catalog = os.path.join(workdir, "catalog.jsonl")
        self.output = os.path.join(workdir, "swdim.out")
        positions = rng.sample(range(self.count), 2 * max(1, round(self.count / 100)))
        half = len(positions) // 2
        # Drifted records must be reported; decoys only change `computed_at`,
        # which the CLI ignores, so they must not be.
        self.drifts = {i: rng.choice(self.drift_fields) for i in positions[:half]}
        self.decoys = set(positions[half:])
        # A self-check passes forget_drifts > 0 to expect fewer drifts than
        # were seeded; the verify gate must then fail.
        self.forget_drifts = forget_drifts
        self.argv = ["swdim", "--sweep", "--max-order", str(max_order), "--catalog", self.catalog]
        self.catalog_bytes = 0

    def _run_cli(self, clock, phase):
        """Run the CLI with its standard output going to a file, as a shell
        redirect would, so the benchmark never holds that output."""
        with open(self.output, "w", encoding="utf-8") as out:
            with clock.region(phase), contextlib.redirect_stdout(out):
                return cli.main(self.argv)

    def _check_output(self, gate):
        """Stream the CLI's output file: check every spec row and collect the
        keys of the DRIFT lines.  Returns the row count, those keys and the
        last line, which is the summary."""
        rows = 0
        reported = set()
        previous = None
        with open(self.output, encoding="utf-8") as fh:
            for line in fh:
                if previous is not None:
                    if previous.startswith("DRIFT "):
                        family, m, n = previous.split()[1:]
                        reported.add((family, int(m[2:]), int(n[2:])))
                    else:
                        rows += 1
                        gate.check(previous.endswith(" ok"), previous)
                previous = line.rstrip("\n")
        return rows, reported, previous

    def iteration(self, clock, gate):
        if os.path.exists(self.catalog):
            os.remove(self.catalog)
        rc = self._run_cli(clock, "write")
        gate.check(rc == 0, f"write pass exit code {rc}")
        rows, reported, summary = self._check_output(gate)
        gate.check(
            summary == f"swept {self.count} specs: 0 closed-form mismatches, "
            f"0 catalog drifts, {self.count} records appended",
            f"write pass summary {summary!r}",
        )
        gate.check(rows == self.count, f"write pass printed {rows} spec rows")
        gate.check(not reported, f"write pass reported drift for {sorted(reported)[:5]}")
        self.catalog_bytes = os.path.getsize(self.catalog)
        # Stream the catalog once: check each record, drift or decoy the
        # seeded ones, and keep only the keys, so the benchmark holds little
        # memory of its own while the CLI runs.
        pinned = {
            (family, m, 0): expected
            for (family, m), expected in self.pinned.items()
            if groups.GroupSpec(family, m).order <= self.max_order
        }
        keys = []
        expected_drift = set()
        drifted = self.catalog + ".drifted"
        with open(self.catalog, encoding="utf-8") as src, open(drifted, "w", encoding="utf-8") as dst:
            for i, line in enumerate(src):
                rec = json.loads(line)
                key = _record_key(rec)
                keys.append(key)
                gate.check(rec["dE"] == rec["closed_form_dE"], f"dE mismatch {rec['spec']}")
                if key in pinned:
                    got = tuple(Fraction(rec["S"][k]) for k in ("S0", "S1", "S2", "S3"))
                    got = tuple(int(x) if x.denominator == 1 else str(x) for x in got)
                    expected = tuple(pinned.pop(key))
                    gate.check(got == expected, f"S record {key}: {got} != {expected}")
                if i in self.drifts:
                    _mutate(rec, self.drifts[i])
                    expected_drift.add(key)
                elif i in self.decoys:
                    rec["computed_at"] = "1970-01-01T00:00:00+00:00"
                else:
                    dst.write(line)
                    continue
                dst.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(drifted, self.catalog)
        gate.check(len(keys) == self.count, f"catalog holds {len(keys)} records")
        gate.check(not pinned, f"pinned records missing from the catalog: {sorted(pinned)}")
        for key in sorted(expected_drift)[: self.forget_drifts]:
            expected_drift.discard(key)

        rc = self._run_cli(clock, "verify")
        gate.check(rc == 3, f"verify pass exit code {rc} (drift expected)")
        rows, reported, summary = self._check_output(gate)
        gate.check(
            summary == f"swept {self.count} specs: 0 closed-form mismatches, "
            f"{len(self.drifts)} catalog drifts, 0 records appended",
            f"verify pass summary {summary!r}",
        )
        gate.check(rows == self.count, f"verify pass printed {rows} spec rows")
        for key in keys:
            gate.check((key in reported) == (key in expected_drift), f"drift report for {key}")
        return {"write": self.count, "verify": self.count}


# ---------------------------------------------------------------------------
# closure: build_group + scalar_subgroup, then group_report


def dd_abelianization(spec):
    """Invariant factors of G/[G,G] for family DD (acceptance criterion 4)."""
    if spec.n % 2 == 0:
        return [2, 2 * spec.m] if spec.m > 1 else [2, 2]
    return [4 * spec.m]


class Closure:
    """Close a stratified sample of |G| <= 4000, then report on small groups."""

    phases = ("closure", "report")
    metric_names = ("elements_per_s", "report_groups_per_s")

    def __init__(
        self,
        seed,
        closure_max=4000,
        closure_stride=8,
        report_max=800,
        report_stride=2,
        expected_dd_abelianization=dd_abelianization,
    ):
        rng = random.Random(f"closure-{seed}")
        # Stride 8 over the 4000 pool is ~1.1M elements, with DD and DC
        # carrying 98% of them as in the pool itself.
        self.closure_specs = stratified_sample(swindex.sweep_specs(closure_max), closure_stride, rng)
        self.report_specs = stratified_sample(swindex.sweep_specs(report_max), report_stride, rng)
        self.expected_dd_abelianization = expected_dd_abelianization
        self.elements = sum(s.order for s in self.closure_specs)

    def iteration(self, clock, gate):
        sizes = []
        with clock.region("closure"):
            for spec in self.closure_specs:
                group = groups.build_group(spec)
                sizes.append((group.order, len(groups.scalar_subgroup(group).keys)))
        for spec, (order, scalars) in zip(self.closure_specs, sizes):
            gate.check(order == spec.order, f"{spec} closure order {order}")
            gate.check(scalars == 2 * spec.m, f"{spec} scalar order {scalars}")
        for spec in self.report_specs:
            # Built outside the timed region, one at a time, so that the
            # benchmark holds no more than one group of its own.
            group = groups.build_group(spec)
            with clock.region("report"):
                report = groups.group_report(group)
            gate.check(report["order"] == spec.order, f"{spec} report order {report['order']}")
            gate.check(report["scalar_order"] == 2 * spec.m, f"{spec} report scalars")
            if spec.family == "DD":
                expected = self.expected_dd_abelianization(spec)
                gate.check(
                    report["abelianization"] == expected,
                    f"{spec} abelianization {report['abelianization']} != {expected}",
                )
        return {"closure": self.elements, "report": len(self.report_specs)}


# ---------------------------------------------------------------------------
# crosscheck: per-element chi sums and the polynomial-section check


def engine_total(spec) -> Fraction:
    return sum(swindex.s_breakdown(spec).values(), Fraction(0))


class Crosscheck:
    """Per-element chi sums against the engine; section equivariance checks."""

    phases = ("chi", "section")
    metric_names = ("chi_elements_per_s", "section_checks_per_s")

    def __init__(self, seed, chi_max=40, section_max=48, expected_total=engine_total):
        rng = random.Random(f"crosscheck-{seed}")
        pool = swindex.sweep_specs(max(chi_max, section_max, 120))
        smallest = {}
        for s in pool:
            if s.family not in smallest or s.order < smallest[s.family].order:
                smallest[s.family] = s
        # Every small spec, plus the smallest of each family so that all six
        # are covered.  The pools run whole: per-element cost differs by 10x
        # between specs (it grows with the field degree), and a seeded half
        # of each family moved the rate by 14% between seeds, so the seed
        # only sets the order in which the specs run.
        self.chi_specs = [s for s in pool if s.order <= chi_max or smallest[s.family] == s]
        self.section_specs = [s for s in pool if s.order <= section_max]
        rng.shuffle(self.chi_specs)
        rng.shuffle(self.section_specs)
        self.expected_total = expected_total

    def iteration(self, clock, gate):
        for spec in self.chi_specs:
            with clock.region("chi"):
                total = swindex.sum_chi_by_elements(spec)
            expected = self.expected_total(spec)
            gate.check(total == expected, f"{spec} per-element sum {total} != engine {expected}")
        for spec in self.section_specs:
            with clock.region("section"):
                ok = bundle.verify_section_equivariance(spec)
            gate.check(ok, f"{spec} section equivariance failed")
        return {
            "chi": sum(s.order - 1 for s in self.chi_specs),
            "section": len(self.section_specs),
        }


WORKLOADS = {"sweep": Sweep, "closure": Closure, "crosscheck": Crosscheck}
