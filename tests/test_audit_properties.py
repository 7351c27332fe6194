"""Property tests: every audit document, well-formed or not, gets exit code
0 or 2 from `ellsw audit`, and never an uncaught exception."""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ellsw.cli import main

# Any JSON value, inf and nan included (json writes them as Infinity/NaN).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)

DIGIT_LIMIT = sys.get_int_max_str_digits()

# Runs of digits past the limit that int() reads or writes.
huge_digits = st.integers(DIGIT_LIMIT + 1, DIGIT_LIMIT + 300).map(lambda k: "7" * k)

# Numbers as the documents write them: integers, "p" and "p/q" strings
# (q = 0 included), exponent strings read exactly ("1e400" is 10^400), digit
# strings past the limit, and floats (inf and nan included).
rationals = st.one_of(
    st.integers(-50, 50),
    st.integers(-50, 50).map(str),
    st.tuples(st.integers(-50, 50), st.integers(0, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["1e400", "-2.5e-7"]),
    st.tuples(st.integers(-99, 99), st.integers(-400, 400)).map(lambda t: f"{t[0]}e{t[1]}"),
    huge_digits,
    st.floats(),
)


def field(valid):
    """Mostly a plausible value, sometimes any JSON value."""
    return st.one_of(valid, valid, valid, valid, json_values)


points = st.fixed_dictionaries(
    {},
    optional={
        "order": field(st.integers(0, 12)),
        "l": field(st.integers(0, 5)),
        "lp": field(st.none() | st.integers(0, 5)),
        "ambient": field(st.integers(0, 12)),
        "cone_point": field(st.booleans()),
        "group_order": field(st.integers(0, 48)),
    },
)

pairs = st.fixed_dictionaries(
    {},
    optional={
        "i": field(st.integers(-2, 4)),
        "j": field(st.integers(-2, 4)),
        "ambient": field(st.integers(0, 12)),
    },
)

documents = st.one_of(
    st.fixed_dictionaries(
        {
            "class": field(
                st.fixed_dictionaries({"CC": field(rationals), "KC": field(rationals)})
            ),
        },
        optional={
            "underlying_genus": field(st.integers(-3, 5) | st.floats()),
            "points": field(st.lists(field(points), max_size=4)),
            "pairs": field(st.lists(field(pairs), max_size=3)),
            "extra_terms": field(st.lists(field(rationals), max_size=3)),
        },
    ),
    json_values,
)


@settings(max_examples=300, deadline=None)
@given(document=documents)
def test_audit_exit_code_is_0_or_2(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "doc.audit"
    # A fresh file, not a truncating overwrite: on ext4 the overwrite can
    # flush the old data first, at tens of milliseconds per example.
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(document), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["audit", "--input", str(path)])
    assert code in (0, 2), (document, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("input error:")


# Document texts that `json.dumps` cannot write: an integer literal past the
# digit limit in a rational or an integer field, nesting past the parser's
# recursion limit (at the top and inside a field), and bytes that are not
# UTF-8 (alone, or after a well-formed document).
FIELDS = [
    '{"class": {"CC": %s, "KC": 0}}',
    '{"class": {"CC": 0, "KC": "1/3"}, "extra_terms": [%s]}',
    '{"class": {"CC": 0, "KC": 0}, "underlying_genus": %s}',
    '{"class": {"CC": 0, "KC": 0}, "points": [{"order": %s}]}',
]
deep = st.integers(1, 3).map(lambda k: 20 * k * sys.getrecursionlimit())
raw_documents = st.one_of(
    st.tuples(st.sampled_from(FIELDS), huge_digits).map(lambda t: t[0] % t[1]),
    st.tuples(st.sampled_from(FIELDS), huge_digits).map(lambda t: t[0] % f'"-{t[1]}/3"'),
    deep.map(lambda k: "[" * k + "]" * k),
    deep.map(lambda k: '{"a": ' * k + "0" + "}" * k),
    deep.map(lambda k: FIELDS[0] % ("[" * k + "]" * k)),
).map(str.encode) | st.one_of(
    st.binary(max_size=8).map(lambda b: b"\xff" + b),
    st.tuples(documents.map(json.dumps), st.binary(max_size=4)).map(
        lambda t: t[0].encode() + b"\x80" + t[1]
    ),
)


@settings(max_examples=100, deadline=None)
@given(data=raw_documents)
def test_audit_exit_code_is_2_on_edge_texts(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "raw.audit"
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["audit", "--input", str(path)])
    assert code == 2, (data[:200], err.getvalue())
    assert err.getvalue().startswith("input error:")
