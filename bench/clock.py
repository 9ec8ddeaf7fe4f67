"""Time at the machine's reference speed.

The benchmark's host is shared: its speed switches between modes up to
1.7x apart within tens of milliseconds, and the share of time spent in the
slow mode drifts over minutes, longer than a run.  A figure timed in plain
wall time therefore moves between runs of the same code by as much as the
host's load does.

``Clock`` measures that speed while the workload runs.  A timer signal
interrupts the workload every ``PERIOD_S`` seconds and runs ``probe``, a
fixed loop that does not touch the program (Python big-integer arithmetic,
small numpy products and list inserts that shift a long array of keys:
what the library's own calls spend their time on).  Every timed region
subtracts the time its probes took, and is divided by the region's
*slowness*: the mean probe time around the region over ``PROBE_REF_S``,
the probe's time on this machine at its reference speed.  A figure then
reads as the time the call would take at that speed.  The program's own
cost moves a figure; the host's load mostly does not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.025       # one probe per 25 ms of wall time, ~3% of it
PROBE_REF_S = 0.0005   # probe time at the reference speed (README, "Steadiness")
MIN_PROBES = 40        # a region's slowness averages at least this many probes

_KEYS = list(range(1 << 150, (1 << 150) + 60_000))
_VEC = np.arange(8.0)


def probe() -> None:
    acc = 1 << 150
    for i in range(600):
        acc = (acc ^ (i * 0x9E3779B1)) >> 1 | (1 << 150)
    vec = _VEC
    for _ in range(60):
        vec @ vec
    keys = _KEYS
    for i in range(8):
        keys.insert(30_000, i)
    del keys[30_000:30_008]


class Clock:
    """Probes the machine's speed on a timer signal while it runs."""

    def __init__(self):
        self.stamps: list[float] = []   # perf_counter() at the start of each probe
        self.costs: list[float] = []    # each probe's duration
        self.spent = 0.0                # total probe time so far

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        probe()
        d = time.perf_counter() - t
        self.stamps.append(t)
        self.costs.append(d)
        self.spent += d

    def start(self) -> None:
        probe()  # warm
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """(wall time, probe time so far), with no probe between the two reads."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t, spent

    @staticmethod
    def busy(a: tuple[float, float], b: tuple[float, float]) -> float:
        """Wall time from mark ``a`` to mark ``b``, less the probes between them."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def slowness(self, a: float, b: float, past_only: bool = False) -> float:
        """Mean probe time over [a, b] as a multiple of PROBE_REF_S.

        A region with fewer than MIN_PROBES probes in it takes the
        MIN_PROBES nearest its middle (with ``past_only``, the last ones
        before ``b``)."""
        stamps = np.array(self.stamps[:])  # a probe may append while numpy reads
        costs = np.array(self.costs[: stamps.size])
        if stamps.size == 0:
            raise RuntimeError("no speed probe has run")
        lo, hi = (int(i) for i in np.searchsorted(stamps, [a, b]))
        if hi - lo < MIN_PROBES:
            mid = hi if past_only else (lo + hi) // 2 + MIN_PROBES // 2
            hi = min(max(mid, MIN_PROBES), stamps.size)
            lo = max(hi - MIN_PROBES, 0)
        return float(np.mean(costs[lo:hi])) / PROBE_REF_S

    def mean_slowness(self) -> float:
        return float(np.mean(self.costs[:])) / PROBE_REF_S
