"""Test helpers that are not oracles: the panel of target groups, a
wall-clock limit for one slow call, the command line in a fresh process,
and the large scrambled links."""

import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import wld
from wld.classify import named
from wld.moves import EXPAND, make_kind, scramble

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


def run_fresh(argv):
    """(exit code, stdout, stderr) of ``python -m wld`` with ``argv``, in a
    new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wld.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "wld", *argv], capture_output=True,
                          text=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def scrambled_link(steps):
    """h-closure:3,1,2,2 scrambled by welded, V^3 and V(3) moves with seed 5:
    80, 115 and 150 steps give 110, 156 and 203 crossings, all with mu = 3."""
    kinds = [make_kind("r1", direction=EXPAND), make_kind("r2", direction=EXPAND),
             make_kind("r3"), make_kind("oc"), make_kind("v^n", 3, EXPAND),
             make_kind("v(n)", 3, EXPAND)]
    return scramble(named("h-closure:3,1,2,2"), kinds, steps, 5)
