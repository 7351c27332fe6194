"""A wall-clock limit on each test's call, so that a loop that never ends
fails the test that runs it instead of hanging the whole run.

The limit is a real-time interval timer: SIGALRM fails the test and names
it.  After the first alarm the timer repeats every second, so a test that
catches the failure and runs on (a property-based test replaying its
example, say) is cut again.  On a platform without `signal.setitimer` the
tests run with no limit.
"""

import signal

import pytest

TIME_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past its {TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
