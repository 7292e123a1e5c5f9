"""Host speed reference of the dimatch benchmark.

On a shared host the speed of a core drifts by half within seconds
(other tenants, frequency changes), which swamps the differences the
benchmark must show.  So every timed interval is also expressed at a fixed
nominal speed.  While a `Sampler` is active, a SIGALRM handler runs a fixed
pure-Python reference workload (breadth-first searches over a fixed graph,
the same kind of interpreter work as the solver) every INTERVAL_S seconds
of wall time, on the benchmark's only thread.  An interval's seconds, less
the time spent in the handler, are scaled by NOMINAL_S over the mean
reference time sampled during it and at its two ends.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

# median reference time on the host the benchmark was defined on
# (2 CPUs, CPython 3.11.7)
NOMINAL_S = 0.0025
INTERVAL_S = 0.1

_N = 400
_ADJ = tuple(((v + 1) % _N, (v - 1) % _N, (v * 7 + 3) % _N) for v in range(_N))


def _workload() -> int:
    total = 0
    for s in range(0, _N, 20):
        dist = [-1] * _N
        dist[s] = 0
        queue = deque((s,))
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += sum(dist)
    return total


class Sampler:
    """Reference samples taken on a timer while the sampler is active.

    Use as a context manager; `mark` before and after each timed interval,
    and `nominal` to turn the interval into seconds at nominal speed.
    """

    def __init__(self):
        self.samples: list[float] = []      # reference seconds, in order
        self.stolen = 0.0                   # seconds spent sampling
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _workload()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def mark(self) -> tuple[float, float, int]:
        """A point in time: (clock, sampling time so far, samples so far)."""
        return perf_counter(), self.stolen, len(self.samples)

    def measured(self, start, end) -> float:
        """Seconds between two marks, less the time spent sampling."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def nominal(self, start, end) -> float:
        """Seconds between two marks at nominal speed.  Call it once the
        sample after `end` exists (after the next tick, or on exit)."""
        around = self.samples[start[2] - 1:end[2] + 1]
        return self.measured(start, end) * NOMINAL_S / statistics.fmean(around)

    def speed(self) -> float:
        """Host speed relative to nominal (above 1: faster), all samples."""
        return NOMINAL_S / statistics.median(self.samples)
