"""Microbenchmarks of the coset engine: `_singular_sums` without its label
cache (`__wrapped__`), over all 19,795 specs of `sweep_specs(16000)` and over
their 480 polyhedral (TT/TD/OO/II) specs.  Each round sums every spec of the
list once; the SU(2) atom tables are built before the first round.

    PYTHONPATH=src python -m pytest tests/bench_engine.py

The file name keeps it out of the default `test_*.py` collection, so the
Tier-1 suite does not run it.
"""

import pytest

from ellsw import _model
from ellsw.swindex import _singular_sums, sweep_specs

SPECS = sweep_specs(16000)
POLYHEDRAL = [spec for spec in SPECS if spec.family not in ("DD", "DC")]


def _engine(specs):
    engine = _singular_sums.__wrapped__
    return sum(len(engine(spec)) for spec in specs)


@pytest.mark.parametrize(
    "specs, count", [(SPECS, 19795), (POLYHEDRAL, 480)], ids=["sweep16000", "polyhedral16000"]
)
def test_engine(benchmark, specs, count):
    assert len(specs) == count
    for kind in "TOI":
        _model.su2_table(kind)
    labels = benchmark.pedantic(_engine, args=(specs,), rounds=9)
    assert labels == sum(len(_model.family_model(spec).labels) for spec in specs)
