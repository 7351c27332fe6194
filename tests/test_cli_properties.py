"""Property test: any mix of flags and values on `group`, `seifert`, `swdim`,
`verify-rho` and `audit` (negative, zero, huge, non-numeric, repeated)
gets an exit code in {0, 1, 2, 3} and never an uncaught exception."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ellsw.cli import CATALOG_ENV, main
from ellsw.groups import FAMILIES

# Small values give |G| <= 4 * 13 * 13 for DD and DC and 120 * 13 for II,
# and huge ones give |G| past sys.maxsize: no drawn spec has 4000 < |G|
# <= sys.maxsize, which `group` would have to close key by key.
SMALL = [-3, -1, 0, 1, 2, 3, 4, 5, 7, 9, 11, 13]
HUGE = [10**25, 10**25 + 1, 3 * (10**25 + 1), 2**63 + 1]
NON_NUMERIC = ["", "x", "1.5", "1e3", "0x10", "-", "--json"]
NUMBERS = st.sampled_from([str(v) for v in SMALL + HUGE] + NON_NUMERIC)
MAX_ORDERS = st.sampled_from(["-5", "0", "1", "24", "100", "4000", "4e3", "x"])

COMMON = {
    "--family": st.sampled_from(list(FAMILIES) + ["XX", "dd", ""]),
    "--m": NUMBERS,
    "--n": NUMBERS,
}
VALUED = {
    "group": COMMON,
    "seifert": COMMON,
    "verify-rho": COMMON,
    "swdim": {**COMMON, "--max-order": MAX_ORDERS},
    "audit": {"--input": st.sampled_from(["doc", "bad", "missing", "dir", "x"])},
}
SWITCHES = {"swdim": ["--json", "--sweep"]}
STRAYS = ["--bogus", "--help", "7"]


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(VALUED)))
    valued, switches = VALUED[command], SWITCHES.get(command, ["--json"])
    option = st.one_of(
        st.sampled_from(sorted(valued)).flatmap(lambda f: valued[f].map(lambda v: [f, v])),
        st.sampled_from(switches + STRAYS).map(lambda f: [f]),
    )
    return [command] + [token for opt in draw(st.lists(option, max_size=6)) for token in opt]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Audit input names mapped to a readable document, a file that is not
    JSON, a path that does not exist and a directory."""
    root = tmp_path_factory.mktemp("cli_inputs")
    (root / "doc").write_text(json.dumps({"class": {"CC": "2/3", "KC": "-4/3"}}))
    (root / "bad").write_text("{not json")
    return {name: str(root / name) for name in ("doc", "bad", "missing")} | {"dir": str(root)}


@settings(max_examples=200, deadline=None)
@given(argv=invocations())
def test_cli_exit_code_is_documented(inputs, argv):
    argv = [inputs.get(token, token) if i and argv[i - 1] == "--input" else token
            for i, token in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    env = {k: v for k, v in os.environ.items() if k != CATALOG_ENV}  # a sweep writes no catalog
    with mock.patch.dict(os.environ, env, clear=True):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
