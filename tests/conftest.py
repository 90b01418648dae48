"""Suite-wide fixtures."""

import signal

import pytest

HANG_SECONDS = 60  # the slowest test takes about a second


def _hung(signum, frame):
    raise TimeoutError(f"test still running after {HANG_SECONDS} s")


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail a hung test with a traceback instead of hanging the run.

    The alarm is armed in the runner process only: a forked child starts
    with no pending alarm, so worker processes are unaffected.
    """
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(HANG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
