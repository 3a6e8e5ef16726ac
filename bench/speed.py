"""Machine-speed probe: times measured on a shared, bursty machine, made comparable.

Small virtual machines change speed by up to 2x for seconds at a time, as
neighbours come and go, which swamps the differences a benchmark is meant to
show.  The probe tracks the speed: an interval timer interrupts the process
every PERIOD_S seconds and runs a fixed slice of Fraction arithmetic, the
kind partreg does, timing it.  Timed intervals are then measured on
`now()`, a clock that excludes the time spent in slices, and converted to
reference seconds with `factor()`: an interval of t seconds during which the
slices ran at REF_SLICE_S / d times the reference speed counts as t times the
mean of REF_SLICE_S / d.  Slices are spread evenly in time, so that mean is
the interval's time-weighted speed.  Raw seconds are reported beside the
converted ones.

The slice uses only the standard library, so no change to partreg moves it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# One slice's duration at the reference speed; roughly its duration on a
# 2 GHz Xeon under sustained load.
REF_SLICE_S = 0.0005

_clock = time.perf_counter


def _slice() -> int:
    """A fixed mix of what partreg spends its time on: Fraction arithmetic,
    integer division, tuple building and dictionary traffic."""
    acc = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(1, 30):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        for j in range(1, 12):
            key = (i % 7, j)
            seen[key] = seen.get(key, 0) + (i * j) // 3 % 5
            total += len(str(i * j))
    return acc.numerator % 97 + total + len(seen)


class SpeedProbe:
    """Interval-timer speed samples plus a clock that excludes their cost."""

    def __init__(self) -> None:
        self.stolen = 0.0  # seconds spent inside slices
        self.speeds: list[float] = []  # REF_SLICE_S / duration, one per slice
        self._previous = None

    def start(self) -> None:
        _slice()  # warm the code path so the first sample is not an outlier
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum, frame) -> None:
        began = _clock()
        _slice()
        spent = _clock() - began
        self.speeds.append(REF_SLICE_S / spent)
        self.stolen += spent

    def now(self) -> float:
        """Seconds on a clock that stands still while a slice runs."""
        while True:
            stolen = self.stolen
            t = _clock()
            if self.stolen == stolen:
                return t - stolen

    def mark(self) -> int:
        return len(self.speeds)

    def factor(self, since: int, until: int | None = None) -> float:
        """Mean speed of the samples in [since, until); the latest one if none."""
        window = self.speeds[since:until]
        if window:
            return sum(window) / len(window)
        if self.speeds:
            return self.speeds[min(since, len(self.speeds)) - 1]
        return 1.0
