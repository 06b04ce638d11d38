"""Test helpers that are not oracles: the panel of target groups and a
wall-clock limit for one slow call."""

import signal
from contextlib import contextmanager

# the built-in groups that invariance tests count homomorphisms into
PANEL = ("z2", "z3", "z5", "s3", "d4", "q8")


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` inside the block once ``seconds`` of real time
    have passed (SIGALRM, so the main thread only)."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
