"""Command-line front end: group reports, Seifert data, dimension sweeps and
their catalog (`_catalog`), section-equivariance checks, and adjunction audits.

Exit codes: 0 success, 1 usage or parameter error, 2 malformed input
document (errors converted by `errors.input_errors`), 3 internal invariant
violation (including sweep mismatches and catalog drift).
"""

from __future__ import annotations

import argparse
import array
import contextlib
import datetime
import io
import json
import math
import os
import sys

from .bundle import section_equivariance_report
from .curves import run_audit
from .errors import CharacterConflictError, ConstraintError, DomainError, InputDocumentError
from .errors import InternalInvariantError, NotRationalError, input_errors
from .groups import FAMILIES, GroupSpec, build_group, group_report
from .seifert import euler_number, normalized_invariant
from .swindex import closed_form_d_E, sw_dimension_report, sweep_specs

CATALOG_ENV = "ELLSW_CATALOG"

# The line ends a catalog line may have; a line without one is the last.
_LINE_ENDS = ("\n", "\r")

# Library errors that no user input reaches: on a CLI path they are bugs.
_INTERNAL_ERRORS = (InternalInvariantError, CharacterConflictError, DomainError, NotRationalError)


def _spec_from_args(args) -> GroupSpec:
    if args.family is None or args.m is None:
        raise ConstraintError("--family and --m are required")
    return GroupSpec(args.family, args.m, args.n or 0)


def _header(spec) -> str:
    """The first line of a text report: `family X  m=..`, then `  n=..` if n is set."""
    return f"family {spec.family}  m={spec.m}" + (f"  n={spec.n}" if spec.n else "")


def _emit(payload, args, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def cmd_group(args) -> int:
    spec = _spec_from_args(args)
    group = build_group(spec)
    report = group_report(group)
    _emit(
        report,
        args,
        [
            _header(spec),
            f"order          {report['order']}",
            f"scalar order   {report['scalar_order']}",
            f"classes        {report['class_count']}",
            f"abelianization {report['abelianization']}",
        ],
    )
    return 0


def cmd_seifert(args) -> int:
    spec = _spec_from_args(args)
    inv = normalized_invariant(spec)
    payload = inv.to_dict()
    e = euler_number(spec)
    _emit(
        payload,
        args,
        [
            _header(spec),
            f"euler number  {e}",
            f"b             {inv.b}",
            "legs          " + "  ".join(f"({a},{b})" for a, b in inv.legs),
        ],
    )
    return 0


def _sw_record(spec) -> dict:
    report = sw_dimension_report(spec)
    record = report.to_dict()
    record["order"] = spec.order
    record["seifert"] = normalized_invariant(spec).to_dict()
    record["closed_form_dE"] = closed_form_d_E(spec)
    return record


def cmd_swdim(args) -> int:
    if args.sweep:
        return _swdim_sweep(args)
    spec = _spec_from_args(args)
    record = _sw_record(spec)
    ok = record["dE"] == record["closed_form_dE"]
    _emit(
        record,
        args,
        [
            _header(spec),
            f"c1(E)^2       {record['c1E_sq']}",
            f"-K.c1(E)      {record['minus_K_c1E']}",
            "S             " + "  ".join(f"{k}={v}" for k, v in record["S"].items()),
            f"sum chi       {record['sum_chi']}",
            f"d(E)          {record['dE']}   closed form {record['closed_form_dE']}"
            + ("" if ok else "   MISMATCH"),
        ],
    )
    return 0 if ok else 3


def _catalog_path(args):
    return args.catalog or os.environ.get(CATALOG_ENV)


def _read_errors(path):
    """A path that cannot be read (missing, a directory) or bytes that are
    not UTF-8 are input errors."""
    return input_errors(f"cannot read {path}", (OSError, UnicodeDecodeError))


def _parse_json(text, where):
    """`json.loads(text)`; text that does not parse is an input error
    naming `where`, including an integer literal past the digit limit
    (ValueError) and nesting too deep for the parser (RecursionError)."""
    with input_errors(f"invalid JSON in {where}", (ValueError, RecursionError)):
        return json.loads(text)


@contextlib.contextmanager
def _catalog(path, specs):
    """(read_record, write_record) for the catalog at `path`, over the sweep's
    `specs`: a sweep holds one `GroupSpec` per spec, so the catalog keys none.

    One handle reads the file.  Every line is parsed and its spec validated
    up front, but only byte spans are kept: one offset per line and one line
    number per spec in `specs` (the last line that names it); a line for any
    other spec is forgotten.  `read_record(i)` reads the line of `specs[i]`
    again, parses it and returns the record without its `computed_at` stamp,
    or None if no line names that spec.  A line read again that no
    longer parses, or is no longer a record, is an input error.  A last
    line without its line end that does not parse is a record cut short by
    a crash; any other malformed line, or an invalid spec, is an input error.

    With no `specs` the file is only read, and `write_record` is None.
    Else the file is created if missing and its last line made whole (a torn
    one cut off and named on stderr, an open one given its newline), and
    `write_record(record)` writes and flushes one line; the file is synced
    to disk once, at close.
    """
    # Lines keep their own ends ("\n", "\r\n" or "\r"), so each one's UTF-8
    # length is its length in the file: starts[k] is where line k + 1 begins.
    linenos, starts, torn, line = None, array.array("q", [0]), None, ""
    cannot_read = _read_errors(path)
    with contextlib.ExitStack() as stack:
        if os.path.exists(path):
            index = {spec: i for i, spec in enumerate(specs)}
            linenos = array.array("q", bytes(8 * len(specs)))  # 0: no line
            with cannot_read:
                reader = stack.enter_context(open(path, "rb"))
                lines = io.TextIOWrapper(reader, encoding="utf-8", newline="")
                for lineno, line in enumerate(lines, start=1):
                    size = len(line.encode("utf-8"))
                    starts.append(starts[-1] + size)
                    text = line.strip()
                    if not text:
                        continue
                    where = f"catalog {path} line {lineno}"
                    try:
                        rec = _parse_json(text, where)
                    except InputDocumentError:
                        if line.endswith(_LINE_ENDS):
                            raise
                        torn = lineno, starts[-2], size
                        break
                    try:
                        spec = rec["spec"]
                        with input_errors(f"{where}: invalid spec", ConstraintError):
                            i = index.get(GroupSpec(spec["family"], spec["m"], spec.get("n", 0)))
                    except (KeyError, TypeError, AttributeError) as exc:
                        raise InputDocumentError(f"{where}: record has no valid spec") from exc
                    if i is not None:
                        linenos[i] = lineno
                lines.detach()  # keep `reader` open for the re-reads
            del index  # freed before the sweep reaches its own peak

        def read_record(i):
            lineno = linenos and linenos[i]
            if not lineno:
                return None
            start = starts[lineno - 1]
            with cannot_read:
                reader.seek(start)
                text = reader.read(starts[lineno] - start).decode("utf-8")
            where = f"catalog {path} line {lineno}"
            rec = _parse_json(text.strip(), where)
            if not isinstance(rec, dict):
                raise InputDocumentError(f"{where}: record has no valid spec")
            rec.pop("computed_at", None)
            return rec

        if not specs:
            yield read_record, None
            return
        errors = input_errors(f"cannot append to catalog {path}")
        with errors:
            catalog = stack.enter_context(open(path, "a", encoding="utf-8"))
        try:
            with errors:
                if torn:
                    lineno, keep, size = torn
                    catalog.truncate(keep)
                    print(f"catalog {path} line {lineno}: dropped a torn last record ({size} bytes)",
                          file=sys.stderr)
                elif line and not line.endswith(_LINE_ENDS):
                    catalog.write("\n")

            def write_record(record):
                with errors:
                    catalog.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
                    catalog.flush()

            yield read_record, write_record
        finally:
            # Each record is flushed as it is written; one fsync at close
            # makes them durable without paying a disk sync per line.
            with errors:
                catalog.flush()
                os.fsync(catalog.fileno())


def _swdim_sweep(args) -> int:
    specs = sweep_specs(args.max_order)
    path = _catalog_path(args)
    mismatches = drift = appended = 0
    # The catalog is opened before the first spec is computed, so a path that
    # cannot be appended to fails at once.  Each spec's lines and new record go
    # out as soon as it is computed: a sweep that stops keeps the specs before.
    catalog = _catalog(path, specs) if path else contextlib.nullcontext((None, None))
    with catalog as (read_record, write_record):
        for i, spec in enumerate(specs):
            name = f"{spec.family} m={spec.m} n={spec.n}"
            try:
                record = _sw_record(spec)
            except _INTERNAL_ERRORS as exc:
                witness = getattr(exc, "witness", None)
                raise InternalInvariantError(f"{name}: {exc}", witness) from exc
            ok = record["dE"] == record["closed_form_dE"]
            if not ok:
                mismatches += 1
            lines = []
            if path:
                old = read_record(i)
                if old is not None:
                    if old != record:
                        drift += 1
                        lines.append(f"DRIFT {name}")
                else:
                    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
                    write_record({**record, "computed_at": now})
                    appended += 1
            lines.append(
                f"{spec.family:>2} m={spec.m:<4} n={spec.n:<4} |G|={spec.order:<5} "
                f"dE={record['dE']:<3} closed={record['closed_form_dE']:<3} "
                f"{'ok' if ok else 'FAIL'}"
            )
            _emit(record, args, lines)
    if not args.json:
        print(
            f"swept {len(specs)} specs: {mismatches} closed-form mismatches, "
            f"{drift} catalog drifts, {appended} records appended"
        )
    return 3 if (mismatches or drift) else 0


def _zeta(e: int, K: int) -> str:
    """mu_K^e as zeta_d^e' with d its order."""
    g = math.gcd(e, K)
    return f"zeta_{K // g}^{e // g}"


def cmd_verify_rho(args) -> int:
    spec = _spec_from_args(args)
    report = section_equivariance_report(spec)
    K = 2 * spec.m
    lines = []
    payload = {"spec": spec.to_dict(), "ok": report["ok"], "witnesses": []}
    for (name, _, e), t, ok in zip(report["generators"], report["transfer"], report["holds"]):
        rho_g, v_g = _zeta(e, K), _zeta(t, K)
        if not ok:
            lines.append(f"FAIL  f({name} z) != rho({name}) f(z)")
            lines.append(f"      V({name}) = {v_g}, rho({name}) = {rho_g}")
            payload["witnesses"].append({"generator": name, "ok": False, "V": v_g, "rho": rho_g})
            continue
        lines.append(f"ok    f({name} z) = {rho_g} f(z)")
        payload["witnesses"].append({"generator": name, "scalar": rho_g, "ok": True})
    lines.append("PASS" if report["ok"] else "FAIL")
    _emit(payload, args, lines)
    return 0 if report["ok"] else 3


def cmd_audit(args) -> int:
    if not args.input:
        raise ConstraintError("--input FILE is required for audit")
    with _read_errors(args.input), open(args.input, encoding="utf-8") as fh:
        document = _parse_json(fh.read(), args.input)
    result = run_audit(document)
    _emit(
        result,
        args,
        [f"lhs (virtual genus)  {result['lhs']}"]
        + [f"  rhs {name:<16} {v}" for name, v in result["rhs_terms"]]
        + [
            f"rhs total            {result['rhs_total']}",
            f"slack                {result['slack']}",
            "feasible" if result["feasible"] else "INFEASIBLE (negative slack)",
        ],
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (an unknown flag, a bad choice,
    a value of the wrong type) are parameter errors: it prints the usage and
    raises ConstraintError, so `main` exits 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConstraintError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellsw",
        description="Exact invariants of elliptic 3-manifold quotient groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_spec=True):
        if need_spec:
            p.add_argument("--family", choices=FAMILIES)
            p.add_argument("--m", type=int)
            p.add_argument("--n", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("group", help="order, scalars, classes, abelianization")
    common(p)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("seifert", help="Euler number and normalized invariant")
    common(p)
    p.set_defaults(fn=cmd_seifert)

    p = sub.add_parser("swdim", help="moduli-space dimension report or sweep")
    common(p)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--max-order", type=int, default=4000)
    p.add_argument("--catalog", help=f"record file (fallback: ${CATALOG_ENV})")
    p.set_defaults(fn=cmd_swdim)

    p = sub.add_parser("verify-rho", help="check the equivariant-section identity")
    common(p)
    p.set_defaults(fn=cmd_verify_rho)

    p = sub.add_parser("audit", help="evaluate an adjunction audit document")
    common(p, need_spec=False)
    p.add_argument("--input", help="JSON audit document")
    p.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputDocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
