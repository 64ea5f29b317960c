"""Host-speed correction for timings.

The shared host this benchmark was built on runs a process at two speeds
about 1.8x apart, switching every fraction of a second to every few
seconds, and sometimes staying slow for minutes.  CPU time follows wall
time, so the core itself is slower; pinning to one CPU does not help.  Left
alone, this moved the same run by up to 2x.

`SpeedMeter` samples the host speed every INTERVAL_S seconds from a
SIGALRM handler: it times `speed_probe`, a fixed burst of small numpy and
Python operations of the kind derlab's kernels are made of, which slows
down by the same factor as derlab does.  `scaled(t0, t1)` returns the
interval's wall time, less the time the probes took inside it, converted
to the speed at which the probe takes REF_PROBE_S: the duration the same
work would have had on this host at full speed.  Raw timings are reported
next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left

import numpy as np

# speed_probe() at full speed on the host the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6): 5th percentile of 900 probes.
REF_PROBE_S = 0.000192
INTERVAL_S = 0.05


def speed_probe() -> float:
    """Seconds for a fixed burst of small numpy and Python operations
    (best of two)."""
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        for i in range(20):
            b = np.mod(a @ a + i, 3)
            np.nonzero(b[:, 1])
            [int(x) for x in b[0]]
            b[[0, 1]] = b[[1, 0]]
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedMeter:
    """Context manager sampling `speed_probe` on a timer while it is open."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.probes = array("d")
        self.costs = array("d")
        self._previous = None
        self._sampling = False

    def __enter__(self) -> "SpeedMeter":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _on_alarm(self, signum, frame) -> None:
        self._tick()

    def sample(self) -> None:
        """Take a sample now (so an interval that just ended has a neighbour)."""
        self._tick()

    def _tick(self) -> None:
        if self._sampling:  # an alarm during a sample: one is enough
            return
        self._sampling = True
        try:
            t0 = time.perf_counter()
            probe = speed_probe()
            self.starts.append(t0)
            self.probes.append(probe)
            self.costs.append(time.perf_counter() - t0)
        finally:
            self._sampling = False

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without the probes run inside it, at the
        reference speed (mean probe over the interval and its two neighbours)."""
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        own = sum(self.costs[i:j])
        window = self.probes[max(0, i - 1) : min(len(self.probes), j + 1)]
        return (t1 - t0 - own) * REF_PROBE_S / statistics.fmean(window)

    def slow_share(self) -> float:
        """Share of samples at least 1.4x slower than the reference."""
        return sum(1 for p in self.probes if p > 1.4 * REF_PROBE_S) / len(self.probes)
