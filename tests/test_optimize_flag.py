"""Internal checks are explicit raises, so they still fire under `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """\
import sys
from ellsw.errors import InternalInvariantError
if not sys.flags.optimize:
    sys.exit(2)
try:
    {call}
except InternalInvariantError:
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "call",
    [
        # x^2 + 1 = (x + 1)(x - 1) + 2: a remainder is left
        "from ellsw.cyclo import _poly_divexact; _poly_divexact([1, 0, 1], [1, 1])",
        # (1 + x) / (2x): the quotient is not an integer polynomial
        "from ellsw.cyclo import _poly_divexact; _poly_divexact([1, 1], [0, 2])",
        # no primitive root is searched for below 2
        "from ellsw.rootsum import _primitive_root; _primitive_root(2, 2)",
    ],
)
def test_internal_checks_fire_under_optimize(call):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(call=call)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
