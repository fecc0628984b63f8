"""Machine-speed calibration, so that timings survive a host whose speed drifts.

On a shared machine the same op can take 50% longer from one minute to the
next, and the speed changes within a single long op.  The worker therefore
times a fixed calibration unit on a timer (every ``INTERVAL_S``, from a
``SIGALRM`` handler that runs between bytecodes of the op), plus once before
the first op and once after the last.  An op's calibration is the mean of
the samples taken while it ran or within ``WINDOW_S`` of it; the runner
scales the op's wall time by ``REFERENCE_S`` over that mean, so the
reported timings are seconds at a fixed reference speed.  Time spent
calibrating is excluded from every measured interval (``Sampler.clock``).
Raw wall times are kept in the run metadata.

The unit is plain interpreter work of the kinds bmwade spends its time on:
``Fraction`` arithmetic (``Scalar``, specialized entries), dict updates keyed
by tuples (Hecke elements, sparse columns) and tuple rebuilding (Weyl group
elements).  Garbage collection is off while it runs, so the size of the
worker's heap does not leak into the calibration.
"""

from __future__ import annotations

import bisect
import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002
INTERVAL_S = 0.25
WINDOW_S = 0.5
REPEATS = 3


def _unit() -> float:
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 100):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    table: dict = {}
    for k in range(2000):
        key = (k % 97, k % 7)
        table[key] = table.get(key, 0) + k
    w = tuple((k, -k, 1) for k in range(8))
    for k in range(300):
        w = tuple(tuple(a + b for a, b in zip(img, w[k % 8])) if i == k % 8 else img
                  for i, img in enumerate(w))
    return perf_counter() - start


class Sampler:
    """Calibration samples on a timer, and a clock that leaves them out."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self._spent = 0.0
        self._busy = False

    def clock(self) -> float:
        """``perf_counter`` minus the time spent calibrating so far."""
        return perf_counter() - self._spent

    def sample(self) -> float:
        if self._busy:
            return self.values[-1]
        self._busy = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        try:
            value = sorted(_unit() for _ in range(REPEATS))[REPEATS // 2]
            self.times.append(start - self._spent)
            self.values.append(value)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._spent += perf_counter() - start
            self._busy = False
        return value

    def _on_timer(self, signum, frame):
        self.sample()

    @contextmanager
    def running(self):
        """Sample now, every ``INTERVAL_S`` while the block runs, and at its end."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean calibration within ``WINDOW_S`` of ``[start, end]`` (``clock`` times).

        Falls back to the nearest sample on either side when none is that
        close; a window of several samples keeps the noise of one sample out
        of short ops.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        picked = self.values[lo:hi] if lo < hi else self.values[max(lo - 1, 0):lo + 1]
        return sum(picked) / len(picked)
