"""Every witness-carrying error raised in `src/ellsw` is given its witness:
each `InternalInvariantError(...)` and `CharacterConflictError(...)` call
passes one, as a second positional argument or as `witness=`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ellsw"

WITNESS_ERRORS = ("InternalInvariantError", "CharacterConflictError")


def _calls(tree):
    """(line, has a witness) for each call of a witness-carrying error."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in WITNESS_ERRORS:
                has = len(node.args) >= 2 or any(k.arg == "witness" for k in node.keywords)
                yield node.lineno, has


def test_every_witness_error_carries_a_witness():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    calls = [
        (f"{path.name}:{line}", has)
        for path in paths
        for line, has in _calls(ast.parse(path.read_text(), str(path)))
    ]
    assert len(calls) > 20
    assert [where for where, has in calls if not has] == []
