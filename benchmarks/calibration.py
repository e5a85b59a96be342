"""Machine-speed calibration for the end-to-end timings.

The shared host this benchmark runs on changes speed by up to 2x over
seconds to minutes: a fixed loop of Python arithmetic took anywhere from
230 to 365 ms within one 12-second stretch, with CPU time equal to wall time
and no steal time, so the cause is the host's core speed, not scheduling.
Runs of a few tens of seconds then differ by whatever speed phase they
happened to catch.

`kernel()` is a fixed piece of work that does not touch pacsqc: Python
integer arithmetic, Python calls with small containers, and small numpy
linear algebra, the three kinds of work the program's layers do.  A
`SpeedProbe` times kernel passes right before and right after a timed call
and, from a SIGALRM timer in the same thread, every `INTERVAL_S` during it.
The call's time, less the passes run inside it, is multiplied by the mean
of `REFERENCE_S / pass time` over those passes: it becomes the time the call
would have taken at the speed where one pass takes `REFERENCE_S`.  A slower
program still reads slower; a slower moment of the host does not.  The mean
of reciprocals is the time-weighted speed, and one interrupted (slow) pass
barely moves it.
"""

import signal
import time

import numpy as np

# Pass time at the reference speed (about the median on a 2-vCPU x86-64 VM
# with CPython 3 and numpy); only the ratio to it matters.
REFERENCE_S = 0.0005
# Passes run right before and right after the call.
BRACKET_PASSES = 4
# Sampling period inside the call: passes take about 1% of its time.
INTERVAL_S = 0.05

_SYMMETRIC = np.random.default_rng(0).standard_normal((12, 12))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def _affine(x):
    return x * 1.5 + 1.0


def kernel():
    """Seconds taken by one pass of the fixed calibration work."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500):
        total += (i * i) % 7
    x = 0.0
    for i in range(300):
        x = _affine(x) % 3.0
        box = {"x": x}
        pair = [box["x"], i]
    for _ in range(3):
        np.linalg.eigh(_SYMMETRIC)
        np.dot(_SYMMETRIC, _SYMMETRIC).sum()
    del pair
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel passes around (and, with `sample_inside`, during) one timed
    call.  Use as a context manager around exactly the timed region; the
    bracketing passes run outside it, on entry and exit."""

    def __init__(self, sample_inside=True, bracket_passes=BRACKET_PASSES):
        self.sample_inside = sample_inside
        self.bracket_passes = bracket_passes
        self.passes = []
        self.inside_s = 0.0  # time the in-call passes took from the call
        self._previous = None

    def _bracket(self):
        self.passes.extend(kernel() for _ in range(self.bracket_passes))

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.passes.append(kernel())
        self.inside_s += time.perf_counter() - start

    def __enter__(self):
        self._bracket()
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._bracket()
        return False

    def scale(self):
        """Reference-speed seconds per measured second of the call."""
        return REFERENCE_S * sum(1.0 / s for s in self.passes) / len(self.passes)
