"""Reference clock: turns raw seconds into reference-normalised seconds.

The machine this benchmark was tuned on changes speed by tens of percent
within seconds.  Beside the jobs, the benchmark therefore times a fixed
reference loop of exact ``fractions.Fraction`` arithmetic on a dict of
exponent tuples -- the same kind of work the program does, but none of
its code.  While jobs run, an interval timer interrupts the process every
INTERVAL_S and runs the loop once in the signal handler, so a job of a
few seconds is sampled all through and a run of short jobs is sampled
between them.  A job's time is its wall time minus the time spent in the
handler, times NOMINAL_REF_S divided by the mean reference time of the
samples taken during it (or, for a job too short to hold MIN_INSIDE
samples, of the NEAREST samples around it).  A slower moment of the
machine stretches the job and the reference alike, and the ratio stays.
The samples come at even steps of wall time, so their mean weighs each
moment as the job's own time does; a median would drop the slow stretches
that lengthen the job, and left three times the run-to-run spread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

# Mean reference time of one sample on the machine the README's tables
# come from; normalised seconds read like raw seconds there.
NOMINAL_REF_S = 0.001

INTERVAL_S = 0.02
MIN_INSIDE = 5
NEAREST = 9

_LEFT = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
_RIGHT = {(i, j): Fraction(2 * j + 1, i + 3) for i in range(3) for j in range(4)}


def reference_loop() -> Fraction:
    """Fixed exact work: the product of two sparse bivariate polynomials."""
    out = {}
    for (a0, a1), ca in _LEFT.items():
        for (b0, b1), cb in _RIGHT.items():
            e = (a0 + b0, a1 + b1)
            out[e] = out.get(e, 0) + ca * cb
    return sum(out.values())


class RefClock:
    """Reference samples taken through a run, and the scale they imply."""

    def __init__(self):
        self.times: List[float] = []        # sample midpoints, ascending
        self.durations: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def burst(self, n: int = NEAREST) -> None:
        """n samples in a row; for use while the interval timer is off."""
        for _ in range(n):
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "RefClock":
        """Sample every INTERVAL_S until exit, in a SIGALRM handler."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, start: float, end: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.times, start),
                bisect.bisect_right(self.times, end))

    def busy(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent taking samples."""
        lo, hi = self._inside(start, end)
        return sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Normalised seconds per raw second over [start, end]."""
        lo, hi = self._inside(start, end)
        if hi - lo >= MIN_INSIDE:
            chosen = self.durations[lo:hi]
        else:
            mid = (start + end) / 2
            around = range(max(0, lo - NEAREST),
                           min(len(self.times), hi + NEAREST))
            nearest = sorted(around, key=lambda i: abs(self.times[i] - mid))
            chosen = [self.durations[i] for i in nearest[:NEAREST]]
        return NOMINAL_REF_S / statistics.fmean(chosen)

    def overall_factor(self) -> float:
        """Normalised seconds per raw second over every sample taken."""
        return NOMINAL_REF_S / statistics.fmean(self.durations)

    def spread(self) -> Tuple[float, float, float]:
        """(min, mean, max) of the reference samples, in seconds."""
        return (min(self.durations), statistics.fmean(self.durations),
                max(self.durations))
