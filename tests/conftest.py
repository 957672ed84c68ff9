# Keeps this directory on sys.path so tests can import the shared support module.

import signal

import pytest

# Wall-clock limit of one test call, in seconds; the slowest test takes
# about 3 s, so only a loop that never ends reaches it.
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives TIME_LIMIT_S; a BaseException, so that
    hypothesis does not catch it and replay the example that hung."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    except TimeLimitExceeded:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # Only the message: a frame interrupted by a signal may have no line
    # number for the traceback to show.
    pytest.fail(f"{item.nodeid} exceeded the {TIME_LIMIT_S} s time limit", pytrace=False)
