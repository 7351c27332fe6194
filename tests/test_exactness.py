"""The library computes in exact arithmetic only: no module of `src/ellsw`
holds a float or complex literal, names `float` or `complex`, or imports
`cmath`.  The complex embedding the tests compare against lives in
`tests/cyclo_oracles.py`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ellsw"


def _inexact(tree):
    """(line, what) for each inexact construct in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, node.id
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name == "cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node.lineno, "cmath"


def test_no_float_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in _inexact(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
