"""The machine's current speed, for scaling job times to a reference speed.

The shared host this benchmark was tuned on switches between a fast and a
slow state (about 1.7x apart) several times a second and drifts between
minutes.  bttwist's work is pure-Python Fraction arithmetic, so its speed
follows that of a fixed Fraction loop timed at the same moments on the same
CPU.  A run pins itself and its children to one CPU (the host's CPUs change
speed independently), samples the loop on a timer while each job runs,
takes the sampling time out of the job's time, and multiplies every job
time by REFERENCE_S / (mean sample): job times then read as if the machine
ran at the reference speed.  Wall times are kept in the record as well.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.00035   # one pass of the loop at reference speed
TICK_S = 0.02           # sampling period, in job time
PASSES = 2              # passes per sample, about 0.7 ms

_PAIRS = [(Fraction(7 * i + 1, 3 * i + 2), Fraction(5 * i + 3, 2 * i + 1))
          for i in range(40)]


class Speedometer:
    """Samples of the loop's time per pass, and the time spent taking them
    inside jobs (to be subtracted from those jobs)."""

    def __init__(self, on_sample=None):
        """`on_sample(start, end)`, if given, hears of each sample taken
        inside a job."""
        self.samples = []
        self.spent = 0.0
        self.on_sample = on_sample

    def sample(self) -> float:
        t0 = perf_counter()
        for _ in range(PASSES):
            for a, b in _PAIRS:
                (a * b + a) / (b - a)
        dt = perf_counter() - t0
        self.samples.append(dt / PASSES)
        return dt

    def _on_tick(self, signum, frame):
        t0 = perf_counter()
        self.spent += self.sample()
        if self.on_sample:
            self.on_sample(t0, perf_counter())

    @contextlib.contextmanager
    def during(self):
        """Sample every TICK_S while the block runs in this process."""
        old = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def after(self, seconds: float):
        """Samples for work already done, one per TICK_S of it, so that every
        second of job time weighs the same."""
        for _ in range(max(1, round(seconds / TICK_S))):
            self.sample()

    def factor(self) -> float:
        """Reference speed over measured speed: multiply wall times by it."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.mean(self.samples)
