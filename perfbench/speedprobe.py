"""A machine-speed probe sampled inside the timed regions.

The shared virtual machine this benchmark was built on changes speed by
15-25% over seconds to minutes, for every process alike, so raw rates from
two runs differ by that much even on identical code.  The probe measures
that speed while the workload runs: a SIGALRM timer fires every
`INTERVAL_S`, and when the process is inside a timed region the handler
times a fixed piece of interpreter work (`_work`).  The handler runs on the
main thread between bytecodes, so no thread or process is added.  The time
spent in the handler is subtracted from the region, and the mean probe
duration over a phase, divided by `REFERENCE_NS`, is the speed index by
which the phase's time is divided: a phase measured while the machine ran
20% slow counts 20% less time.

`REFERENCE_NS` is the median probe duration on the reference machine
(Python 3.11.7, 2 vCPUs), so normalized figures read like raw ones taken
there at its typical speed.  A change to the program does not change the
probe's work.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_NS = 1_500_000

_TABLE = {i: i * i for i in range(64)}


def _work():
    """Fixed work in the mix the workloads run: dict, int and Fraction ops."""
    table = _TABLE
    acc = 0
    x = Fraction(0)
    for i in range(400):
        acc += table[(i * 7) & 63] + (i & 3)
        x += Fraction(i % 7, 1 + i % 5)
    return acc, x


def time_work_ns() -> int:
    """Duration of one probe, with the cyclic collector paused so that a
    collection of the workload's heap is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine speed while `active`; use as a context manager.

    `total_ns` and `count` accumulate the probe durations taken so far;
    `begin` and `end` bracket one timed region and return what the probe
    took inside it.
    """

    def __init__(self, always_active=False):
        self.active = always_active
        self.total_ns = 0
        self.count = 0
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self.active:
            self.total_ns += time_work_ns()
            self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def begin(self):
        self.active = True
        return self.total_ns, self.count

    def end(self, mark):
        self.active = False
        return self.total_ns - mark[0], self.count - mark[1]
