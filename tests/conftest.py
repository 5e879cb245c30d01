import signal

import pytest
from hypothesis import settings

# Every Hypothesis test draws the same examples on every run, so tier-1 is
# reproducible: a failure found once is found again, and a pass stays a pass.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


class TimeLimitExceeded(Exception):
    pass


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test, instead of hanging the run, if it takes over 20 s."""

    def expire(signum, frame):
        raise TimeLimitExceeded("test ran past its 20 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)
