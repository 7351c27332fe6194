"""The benchmark's tracer (perfbench/tracer.py) looks up about 100 ellsw
names by `getattr` and `cls.__dict__`; a library name it wraps that goes
missing fails here, not only in a traced benchmark run."""

from pathlib import Path

import ellsw
import ellsw.cli  # noqa: F401  (the tracer looks up every module it wraps in sys.modules)
from ellsw import cyclo, rootsum, swindex

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


def test_tracer_wraps_the_one_ramanujan_sum_under_both_names(monkeypatch):
    # `rootsum` reads the function that `cyclo` defines; the tracer's one
    # wrapper replaces it in both modules, so `_trace_row` is timed too.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = cyclo.ramanujan_sum
    assert rootsum.ramanujan_sum is original
    t = tracer.Tracer(ellsw)
    t.install()
    try:
        assert cyclo.ramanujan_sum is not original
        assert rootsum.ramanujan_sum is cyclo.ramanujan_sum
    finally:
        t.uninstall()
    assert cyclo.ramanujan_sum is original
    assert rootsum.ramanujan_sum is original
