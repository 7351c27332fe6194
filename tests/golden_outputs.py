"""Golden digests of the command-line outputs.

Each call runs through `ellsw.cli.main` in process, with `ELLSW_CATALOG`
unset, and is reduced to the first 12 hex digits of the SHA-256 of its exit
code, stdout and stderr.  The digests live in `tests/golden.json`, one per
call, keyed by set and then by the call's argv; `test_golden.py` compares
every call with them.  A change that alters an output on purpose
regenerates the file with

    PYTHONPATH=src python tests/golden_outputs.py --write

and names each changed set, and why, in CHANGES.md.

The error cases write their input files into a temporary directory, whose
path is replaced by `<TMP>` in the argv and in the outputs before hashing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from ellsw import cli
from ellsw.swindex import sweep_specs

GOLDEN = Path(__file__).with_name("golden.json")
TMP = "<TMP>"


def _spec_argv(spec):
    argv = ["--family", spec.family, "--m", str(spec.m)]
    return argv + ["--n", str(spec.n)] if spec.n else argv


def _calls_json(command, tmp):
    for spec in sweep_specs(1200):
        yield [command, *_spec_argv(spec), "--json"]


def _calls_verify_rho(tmp):
    for argv in [*map(_spec_argv, sweep_specs(400)), ["--family", "DD", "--m", "100001", "--n", "2"]]:
        yield ["verify-rho", *argv]
        yield ["verify-rho", *argv, "--json"]


def _calls_swdim(tmp):
    for spec in sweep_specs(1200):
        yield ["swdim", *_spec_argv(spec)]
        yield ["swdim", *_spec_argv(spec), "--json"]


def _calls_sweep(tmp):
    yield ["swdim", "--sweep", "--max-order", "4000"]
    yield ["swdim", "--sweep", "--max-order", "4000", "--json"]


_POINT = {"order": 6, "l": 1, "lp": None, "ambient": 6, "cone_point": True, "group_order": 24}
_MEMBER = {"class": {"CC": "2/3", "KC": "-4/3"}, "points": [_POINT]}

# Audit documents (JSON values, or raw text) by file name: the member
# document and the malformed ones that tests/test_cli.py pins.
_AUDITS = {
    "member": {**_MEMBER, "underlying_genus": 0},
    "not-json": "{not json",
    "negative-pair-index": {
        "class": {"CC": "1/2", "KC": "0"},
        "points": [{"order": 3, "l": 1, "lp": 1, "ambient": 6},
                   {"order": 2, "l": 1, "lp": 1, "ambient": 6}],
        "pairs": [{"i": -1, "j": -2}],
    },
    "float-order": {**_MEMBER, "points": [{**_POINT, "order": 6.9}]},
    "float-genus": {**_MEMBER, "underlying_genus": 0.5},
    "bool-winding": {**_MEMBER, "points": [{**_POINT, "l": True}]},
    "float-pairing": {**_MEMBER, "class": {"CC": 0.1, "KC": "-4/3"}},
    "bool-pairing": {**_MEMBER, "class": {"CC": "2/3", "KC": True}},
    "float-extra-term": {**_MEMBER, "extra_terms": [0.5]},
    "zero-group-order": {**_MEMBER, "points": [{**_POINT, "group_order": 0}]},
    "negative-genus": {**_MEMBER, "underlying_genus": -3},
    "numerator": {"class": {"CC": "1e5000", "KC": "0"}},
    "denominator": {**_MEMBER, "extra_terms": ["1e-5000"]},
    "cancelling": {"class": {"CC": "1e5000", "KC": "-1e5000"}},
    "exponent": {"class": {"CC": "1e99999999", "KC": "0"}},
    "negative-exponent": {"class": {"CC": "-1e-99999999", "KC": "0"}},
    "zero-mantissa": {"class": {"CC": "0e99999999", "KC": "0"}},
    "underscored-exponent": {"class": {"CC": "1e9_999_999", "KC": "0"}},
    "large-exponent": {"class": {"CC": "1e400", "KC": "0"}},
    "zero-denominator": '{"class": {"CC": "1/0", "KC": "0"}}',
    "zero-denominator-extra-term": '{"class": {"CC": "1/2", "KC": "0"}, "extra_terms": ["1/0"]}',
    "infinite-CC": '{"class": {"CC": 1e400, "KC": "0"}}',
    "infinite-genus": '{"class": {"CC": "1/2", "KC": "0"}, "underlying_genus": 1e400}',
    "oversized-integer": '{"class": {"CC": ' + "9" * 5000 + ', "KC": 0}}',
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "latin1": b'{"class": "\xff"}',
}

_RECORD = '{"spec": {"family": "DD", "m": 1, "n": 2}}\n'

# Catalog contents by file name; None makes a directory.  A sweep to order
# 40 reads each one.
_CATALOGS = {
    "no-spec": '{"dE": 2}\n',
    "unhashable-family": '{"spec": {"family": ["DD"], "m": 1}}\n',
    "string-m": '{"spec": {"family": "DD", "m": "1", "n": 2}, "dE": 2}\n',
    "float-m": '{"spec": {"family": "DD", "m": 1.0, "n": 2}, "dE": 2}\n',
    "bool-m": '{"spec": {"family": "DD", "m": true, "n": 2}, "dE": 2}\n',
    "invalid-DD": '{"spec": {"family": "DD", "m": 2, "n": 2}, "dE": 2}\n',
    "catalog-oversized-integer": '{"spec": {"family": "DD", "m": ' + "9" * 5000 + "}}\n",
    "catalog-deep-nesting": "[" * 100000 + "]" * 100000 + "\n",
    "non-utf8": b'{"spec": "\xff"}\n',
    "directory": None,
    "torn-before-the-last": _RECORD * 3 + _RECORD[:25] + "\n" + _RECORD,
    "torn-last": _RECORD[:25],
}


def _write(path, content):
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))


def _calls_errors(tmp):
    for name, doc in _AUDITS.items():
        _write(tmp / f"{name}.audit", doc)
        yield ["audit", "--input", str(tmp / f"{name}.audit")]
    yield ["audit", "--input", str(tmp / "missing.audit")]
    yield ["audit", "--input", str(tmp)]  # a directory
    for name, content in _CATALOGS.items():
        _write(tmp / f"{name}.jsonl", content)
        yield ["swdim", "--sweep", "--max-order", "40", "--catalog", str(tmp / f"{name}.jsonl")]
    yield ["swdim", "--sweep", "--max-order", "40", "--catalog", str(tmp / "missing" / "records.jsonl")]


# Set name -> the calls of the set, given the temporary directory.
SETS = {
    "group": functools.partial(_calls_json, "group"),
    "seifert": functools.partial(_calls_json, "seifert"),
    "verify-rho": _calls_verify_rho,
    "swdim": _calls_swdim,
    "sweep": _calls_sweep,
    "errors": _calls_errors,
}


def _digest(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(tmp, TMP)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def digests(name):
    """{argv joined by spaces: digest} for every call of the set `name`, in order."""
    found = {}
    # One parser serves every call of the set: `parse_args` leaves it as it
    # was, and building it is 0.8 ms, near half of an average call.
    parser = functools.lru_cache(cli.build_parser)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            mock.patch.object(cli, "build_parser", parser):
        os.environ.pop(cli.CATALOG_ENV, None)
        for argv in SETS[name](Path(tmp)):
            found[" ".join(argv).replace(tmp, TMP)] = _digest(argv, tmp)
    return found


def first_difference(name, golden):
    """None when set `name` reproduces `golden`, else the first argv that does not."""
    found = digests(name)
    for argv in [*golden, *found]:
        if golden.get(argv) != found.get(argv):
            return f"set {name!r}, call {argv!r}: digest {found.get(argv)}, golden {golden.get(argv)}"
    return None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps({name: digests(name) for name in SETS}, indent=1) + "\n")
