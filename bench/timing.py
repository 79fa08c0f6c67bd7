"""Operation timing, and the speed probe that scales times to a reference
machine speed.

The benchmark is meant for shared hosts, where other tenants slow the CPU
by up to about 1.7x for seconds to minutes at a time.  A fixed kernel timed
every PROBE_INTERVAL_S measures that slow-down as it happens, and each
reported time is scaled by the probes taken while it ran.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np

# speed_probe's time on the machine the benchmark was written on (2 vCPUs
# at 2.0 GHz, OpenBLAS 0.3.31) when uncontended.  End-to-end times are
# reported scaled by PROBE_REF_S / (median probe taken while they ran): the
# time they would have taken at that reference speed, so that slow-downs
# imposed by other tenants of a shared host cancel out.
PROBE_REF_S = 0.0062

_PROBE_MATRIX = np.array([[4.0 if i == j else 1.0 / (1 + i + j) for j in range(6)]
                          for i in range(6)])


def speed_probe() -> float:
    """Seconds taken by a fixed kernel that mixes interpreter work with 6x6
    factorisations, as the solver does, and shares no code with sosarp."""
    start = time.perf_counter()
    total = 0.0
    for k in range(1000):
        total += float(np.linalg.cholesky(_PROBE_MATRIX)[5, 5])
        total += sum(i * k for i in range(12)) * 1e-9
    return time.perf_counter() - start


class OpClock:
    """Latency of each operation, the id of the one now running, and speed
    probes taken every PROBE_INTERVAL_S while ``sampling`` is active.

    A probe runs in a SIGALRM handler, so it interrupts long operations as
    well as short ones; its time is taken out of the latency of the
    operation it interrupted and out of the pass wall time.
    """

    PROBE_INTERVAL_S = 0.25
    # a single probe is noisy; time an operation against those around it
    PROBE_WINDOW_S = 1.0

    def __init__(self) -> None:
        self.ops: List[Tuple[float, float, float]] = []  # start, end, latency
        self.current: Optional[int] = None
        self.count = 0
        self.probes: List[Tuple[float, float]] = []  # when, seconds taken
        self.probe_s = 0.0

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        taken = speed_probe()
        self.probes.append((start, taken))
        self.probe_s += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        self._probe(None, None)
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_INTERVAL_S,
                         self.PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def op(self):
        self.count += 1
        self.current = self.count
        probe_s = self.probe_s
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.ops.append((start, end, end - start - (self.probe_s - probe_s)))
            self.current = None

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the median probe taken within PROBE_WINDOW_S of
        [start, end], or over the probe nearest to it when none was."""
        start -= self.PROBE_WINDOW_S
        end += self.PROBE_WINDOW_S
        inside = [taken for when, taken in self.probes if start <= when <= end]
        if not inside:
            middle = (start + end) / 2.0
            inside = [min(self.probes, key=lambda pr: abs(pr[0] - middle))[1]]
        return PROBE_REF_S / statistics.median(inside)
