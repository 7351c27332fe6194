"""Command-line front end: group reports, Seifert data, dimension sweeps,
section-equivariance checks, and adjunction audits.

Exit codes: 0 success, 1 usage or parameter error, 2 malformed input
document, 3 internal invariant violation (including sweep mismatches and
catalog drift).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from .bundle import section_equivariance_report
from .curves import run_audit
from .cyclo import root_exponent
from .errors import ConstraintError, InputDocumentError, InternalInvariantError
from .groups import GroupSpec, build_group, group_report, scalar_subgroup
from .seifert import euler_number, normalized_invariant
from .swindex import closed_form_d_E, sw_dimension_report, sweep_specs

CATALOG_ENV = "ELLSW_CATALOG"


def _spec_from_args(args) -> GroupSpec:
    if args.family is None or args.m is None:
        raise ConstraintError("--family and --m are required")
    return GroupSpec(args.family, args.m, args.n or 0).validate()


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
    report["scalar_order"] = len(scalar_subgroup(group))
    _emit(
        report,
        args,
        [
            f"family {spec.family}  m={spec.m}" + (f"  n={spec.n}" if spec.n else ""),
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
            f"family {spec.family}  m={spec.m}" + (f"  n={spec.n}" if spec.n else ""),
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
            f"family {spec.family}  m={spec.m}" + (f"  n={spec.n}" if spec.n else ""),
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


def _read_catalog(path) -> dict:
    """(family, m, n) -> stored record; a malformed line is an input error."""
    existing = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                spec = rec["spec"]
                key = (spec["family"], spec["m"], spec.get("n", 0))
                existing[key] = rec
            except json.JSONDecodeError as exc:
                raise InputDocumentError(
                    f"catalog {path} line {lineno}: invalid JSON at column {exc.colno}"
                ) from exc
            except (KeyError, TypeError, AttributeError) as exc:
                raise InputDocumentError(
                    f"catalog {path} line {lineno}: record has no valid spec"
                ) from exc
    return existing


def _swdim_sweep(args) -> int:
    specs = sweep_specs(args.max_order)
    path = _catalog_path(args)
    existing = _read_catalog(path) if path and os.path.exists(path) else {}
    mismatches = 0
    drift = 0
    appended = 0
    out_lines = []
    new_records = []
    for spec in specs:
        record = _sw_record(spec)
        ok = record["dE"] == record["closed_form_dE"]
        if not ok:
            mismatches += 1
        key = (spec.family, spec.m, spec.n)
        if path:
            if key in existing:
                old = dict(existing[key])
                old.pop("computed_at", None)
                if old != record:
                    drift += 1
                    out_lines.append(f"DRIFT {spec.family} m={spec.m} n={spec.n}")
            else:
                stamped = dict(record)
                stamped["computed_at"] = (
                    datetime.datetime.now(datetime.timezone.utc).isoformat()
                )
                new_records.append(stamped)
                appended += 1
        if args.json:
            print(json.dumps(record, sort_keys=True, separators=(",", ":")))
        else:
            out_lines.append(
                f"{spec.family:>2} m={spec.m:<4} n={spec.n:<4} |G|={spec.order:<5} "
                f"dE={record['dE']:<3} closed={record['closed_form_dE']:<3} "
                f"{'ok' if ok else 'FAIL'}"
            )
    if path and new_records:
        with open(path, "a", encoding="utf-8") as fh:
            for rec in new_records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    if not args.json:
        for line in out_lines:
            print(line)
        print(
            f"swept {len(specs)} specs: {mismatches} closed-form mismatches, "
            f"{drift} catalog drifts, {appended} records appended"
        )
    return 3 if (mismatches or drift) else 0


def cmd_verify_rho(args) -> int:
    spec = _spec_from_args(args)
    u = (args.u1, args.u2)
    report = section_equivariance_report(spec, u=u, trials=args.trials)
    scalars = report["scalars"]
    character = report["character"]
    lines = []
    payload = {"spec": spec.to_dict(), "ok": report["ok"], "witnesses": []}
    for (name, key), (gkey, scalar) in zip(character.generators, scalars.items()):
        if scalar is None:
            lines.append(f"FAIL  f({name} z) != rho({name}) f(z)")
            payload["witnesses"].append({"generator": name, "ok": False})
            continue
        d, e = root_exponent(scalar)
        lines.append(f"ok    f({name} z) = zeta_{d}^{e} f(z)")
        payload["witnesses"].append({"generator": name, "scalar": f"zeta_{d}^{e}", "ok": True})
    lines.append("PASS" if report["ok"] else "FAIL")
    _emit(payload, args, lines)
    return 0 if report["ok"] else 3


def cmd_audit(args) -> int:
    if not args.input:
        raise ConstraintError("--input FILE is required for audit")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise InputDocumentError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDocumentError(
            f"invalid JSON in {args.input} at line {exc.lineno} column {exc.colno}"
        ) from exc
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsw",
        description="Exact invariants of elliptic 3-manifold quotient groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_spec=True):
        if need_spec:
            p.add_argument("--family", choices=("DD", "DC", "TT", "TD", "OO", "II"))
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
    p.add_argument("--u1", type=int, default=1)
    p.add_argument("--u2", type=int, default=1)
    p.add_argument("--trials", type=int, default=8)
    p.set_defaults(fn=cmd_verify_rho)

    p = sub.add_parser("audit", help="evaluate an adjunction audit document")
    common(p, need_spec=False)
    p.add_argument("--input", help="JSON audit document")
    p.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputDocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
