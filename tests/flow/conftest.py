"""A wall-clock limit on every flow test.

A solver change that livelocks (a push-relabel that stops resetting a
node's current-arc cursor on relabel spins forever) would otherwise hang
the suite and CI instead of failing them.  Each test here gets
``TEST_SECONDS`` of wall time, through a ``SIGALRM`` interval timer; the
slowest flow test takes well under a second.  Where there is no interval
timer (non-POSIX) or the test runs outside the main thread, the fixture
does nothing.
"""

import signal
import threading

import pytest

TEST_SECONDS = 60


class WallLimitExceeded(BaseException):
    """Raised into a test past its limit.  A ``BaseException``, so neither
    the code under test nor Hypothesis's shrinker (which would re-run the
    hung example) catches it; pytest reports it as the test's failure."""


@pytest.fixture(autouse=True)
def wall_limit(request):
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expire(signum, frame):
        raise WallLimitExceeded(f"{request.node.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
