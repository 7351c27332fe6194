"""Property tests: every catalog line, a valid record or a malformed one,
gets exit code 0, 2 or 3 (drift) from `ellsw swdim --sweep --catalog`,
and never an uncaught exception."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsw.cli import main

ARGS = ["swdim", "--sweep", "--max-order", "40"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def field(valid):
    """Mostly a plausible value, sometimes any JSON value."""
    return st.one_of(valid, valid, valid, json_values)


specs = st.fixed_dictionaries(
    {},
    optional={
        "family": field(st.sampled_from(["DD", "DC", "TT", "TD", "OO", "II", "XX"])),
        "m": field(st.integers(-2, 12)),
        "n": field(st.integers(-2, 12)),
    },
)

records = st.fixed_dictionaries(
    {},
    optional={
        "spec": field(specs),
        "dE": field(st.integers(0, 40)),
        "S": field(st.dictionaries(st.sampled_from(["S0", "S1", "Lambda1"]), st.text(max_size=6))),
        "computed_at": field(st.text(max_size=12)),
    },
)


# Whole lines, from well-formed JSON records to text that is not JSON at
# all: integers past the digit limit, nesting past the parser's recursion
# limit, a torn record, and arbitrary text.
lines = st.one_of(
    records.map(json.dumps),
    records.map(json.dumps),
    json_values.map(json.dumps),
    st.integers(4300, 6000).map(lambda k: '{"spec": {"family": "DD", "m": ' + "7" * k + "}}"),
    st.integers(1, 3).map(lambda k: "[" * (50000 * k) + "]" * (50000 * k)),
    records.map(json.dumps).flatmap(lambda s: st.integers(0, len(s)).map(lambda i: s[:i])),
    st.text(max_size=30),
)


@pytest.fixture(scope="module")
def catalog_path(tmp_path_factory):
    """One catalog path, in one directory, for every example of this
    module.  Each example unlinks the catalog and writes a fresh file:
    removing a temporary directory per example took about a third of the
    200-example test."""
    return tmp_path_factory.mktemp("catalog") / "records.jsonl"


@settings(max_examples=200, deadline=None)
@given(catalog=st.lists(lines, min_size=1, max_size=4))
def test_sweep_catalog_exit_code_is_0_2_or_3(catalog_path, catalog):
    catalog_path.unlink(missing_ok=True)
    catalog_path.write_text("\n".join(catalog) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(ARGS + ["--catalog", str(catalog_path)])
    assert code in (0, 2, 3), (catalog, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("input error:")


# Lines at the edges: a number past the digit limit, as a JSON literal or as
# a string, in each field of a record; exponent literals (1e400 parses as an
# infinite float) and exponent strings; and bytes that are not UTF-8, alone
# or after a well-formed record.  Every such line is an input error; with
# all three numbers 3 the spec is DD(3, 3), which fails gcd(m, n) = 1.
RECORD = '{"spec": {"family": "DD", "m": %s, "n": %s}, "dE": %s}'
huge = st.integers(sys.get_int_max_str_digits() + 1, sys.get_int_max_str_digits() + 300)
numbers = st.one_of(
    st.sampled_from(["3", "1e400", "-2.5e-7", '"1e400"', '"-2.5e-7"']),
    huge.map(lambda k: "7" * k),
    huge.map(lambda k: '"' + "7" * k + '"'),
)
edge_lines = st.one_of(
    st.tuples(numbers, numbers, numbers).map(lambda t: (RECORD % t).encode()),
    st.binary(max_size=8).map(lambda b: b"\xff" + b),
    records.map(json.dumps).map(lambda r: r.encode() + b"\x80"),
)


@settings(max_examples=60, deadline=None)
@given(catalog=st.lists(edge_lines, min_size=1, max_size=3))
def test_sweep_catalog_exit_code_on_edge_lines(catalog_path, catalog):
    catalog_path.unlink(missing_ok=True)
    catalog_path.write_bytes(b"\n".join(catalog) + b"\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(ARGS + ["--catalog", str(catalog_path)])
    assert code == 2, (catalog, err.getvalue())
    assert err.getvalue().startswith("input error:")
