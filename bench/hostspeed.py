"""Host-speed reference: a fixed burst of numpy work, sampled through the timed phase.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two over tens of seconds, and a drift that lasts a whole run
moves that run's times with it. While the timed phase runs, a SIGALRM every
INTERVAL_S seconds runs one `burst` (a fixed amount of work, independent of
the package) in the benchmark process, on the same core, between two
bytecodes of whatever round is running. The bursts' own time is taken out
of the round they interrupted, and the round times are scaled by
NOMINAL_S / (mean burst time of the run). A scaled time is the time the
round would take on a host that runs a burst in NOMINAL_S; a change to the
package moves it fully, a drift of the host's speed moves it much less.
Set-up times are scaled by `reference_seconds`, timed in the same process
around each set-up.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.5
# A burst's wall time on the reference host (2 vCPUs, Intel Xeon 2.0 GHz) in
# its faster mode; scaled times read as seconds on that host.
NOMINAL_S = 0.020
_SMALL = np.linspace(0.1, 1.0, 25)
_LARGE = np.linspace(0.0, 1.0, 65_536)


def burst() -> float:
    """Small-array steps in a Python loop, then a few wide array passes.

    The mix follows the package's: per-step numpy overhead on k-sized
    vectors (optimizer, batch) and passes over tens of thousands of samples
    (oracle).
    """
    x, acc = _SMALL.copy(), 0.0
    for _ in range(1200):
        norm = float(np.sqrt(x @ x))
        acc += float(np.arccos(np.clip(x[0] / norm, -1.0, 1.0)))
        x = x * 0.9999 + 0.0001 * np.cos(x)
    for i in range(8):
        acc += float(np.sum(np.maximum(np.sin(_LARGE * i), 0.0) ** 2))
    return acc


def reference_seconds(count: int = 3) -> float:
    """Mean wall time of `count` bursts after one warm-up burst."""
    burst()
    walls = []
    for _ in range(count):
        start = time.perf_counter()
        burst()
        walls.append(time.perf_counter() - start)
    return statistics.fmean(walls)


class Sampler:
    """Start, wall time and CPU time of every burst run during `sampling()`."""

    def __init__(self) -> None:
        self.bursts: list[tuple[float, float, float]] = []
        self._busy = False

    def measure(self) -> None:
        c0, w0 = time.process_time(), time.perf_counter()
        burst()
        self.bursts.append((w0, time.perf_counter() - w0, time.process_time() - c0))

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.measure()
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Run a burst now, every INTERVAL_S seconds while inside, and once at the end."""
        burst()  # warm-up, not recorded
        self.measure()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.measure()

    def within(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU time of the bursts that started between two perf_counter readings.

        A burst runs whole between two bytecodes, so one that started after
        `start` was read also ended before `end` was read.
        """
        inside = [(w, c) for t, w, c in self.bursts if start <= t <= end]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def wall_scale(self) -> float:
        return NOMINAL_S / statistics.fmean(w for _, w, _ in self.bursts)

    def cpu_scale(self) -> float:
        return NOMINAL_S / statistics.fmean(c for _, _, c in self.bursts)
