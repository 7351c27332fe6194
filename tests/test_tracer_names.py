"""The benchmark's tracer (perfbench/tracer.py) looks up about 100 ellsw
names by `getattr` and `cls.__dict__`; a library name it wraps that goes
missing fails here, not only in a traced benchmark run."""

from pathlib import Path

import ellsw
import ellsw.cli  # noqa: F401  (the tracer looks up every module it wraps in sys.modules)
from ellsw import rootsum, swindex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_plans_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    chi = swindex.chi
    is_galois_stable = rootsum.RootSum.__dict__["is_galois_stable"]
    t = tracer.Tracer(ellsw)
    t.install()
    try:
        assert swindex.chi is not chi
    finally:
        t.uninstall()
    assert swindex.chi is chi
    assert rootsum.RootSum.__dict__["is_galois_stable"] is is_galois_stable
