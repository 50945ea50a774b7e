"""Host-speed samples taken through a run, and times in reference seconds.

The reference host's vCPUs change speed by up to 1.5x, in phases that
last from a second to minutes, and CPU time follows wall time through
them.  Raw times of two runs of the same code then differ by more than
any useful bound.  So while a run measures, a ``SIGALRM`` timer
interrupts the client every :data:`SAMPLE_EVERY` seconds and times a fixed
pure-Python loop of about a millisecond.  A request's time is rescaled by
:data:`REFERENCE_SAMPLE_S` over the median sample taken within
:data:`SPEED_WINDOW` seconds of it: the result is what the request would
have taken on the reference host at its usual speed.  The time spent
sampling inside a request is taken out first.

The loop is the benchmark's own code, so a change to the program moves
the request times and not the samples.  Forked workers do not inherit
the timer.  The samples run in the client only: on ``fleet`` they track
the client's vCPU while the workers run on both.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Seconds between samples.
SAMPLE_EVERY = 0.05
#: Iterations of the sample loop: about 0.8 ms on the reference host.
SAMPLE_LOOP = 10_000
#: Median sample on the reference host (2 vCPUs) during a run: the unit
#: the rescaled times are expressed in.
REFERENCE_SAMPLE_S = 0.0008
#: A request's speed is the median of the samples from this many seconds
#: before it starts to this many after it ends, so a short request still
#: has several.
SPEED_WINDOW = 0.5


def sample_loop() -> float:
    """Seconds for the fixed loop, as the host runs it right now."""
    started = time.perf_counter()
    total = 0
    for i in range(SAMPLE_LOOP):
        total += i * i & 7
    return time.perf_counter() - started


class HostSpeed:
    """Samples the host's speed while active (a context manager)."""

    def __init__(self) -> None:
        #: perf_counter() at each sample's start, and its seconds.
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(sample_loop())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> List[float]:
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        return self.seconds[low:high]

    def sampling_s(self, start: float, end: float) -> float:
        """Seconds the client spent sampling between ``start`` and ``end``."""
        return sum(self._between(start, end))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of the interval [start, end]."""
        window = self._between(start - SPEED_WINDOW, end + SPEED_WINDOW) \
            or self.seconds
        return REFERENCE_SAMPLE_S / statistics.median(window)

    def median_sample_s(self) -> float:
        return statistics.median(self.seconds)
