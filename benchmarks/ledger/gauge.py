"""A machine-speed gauge, so that times repeat on a shared sandbox.

The sandbox's CPUs change speed under the benchmark: a fixed pure-Python
loop takes anywhere from 0.8x to 1.8x its usual time, in episodes that
last seconds (CPU time moves with wall time, so it is contention for the
core, not preemption).  Raw beats/s on one commit then spreads 5-25%
between runs — wider than any bound worth setting.

The gauge times a fixed kernel of interpreter work every
:data:`INTERVAL_S` *between* operations, and every reported time is
divided by how slow the kernel ran around it relative to
:data:`REFERENCE_S`.  Reported times are therefore "at reference machine
speed": a change to the repository moves them fully (the kernel is the
benchmark's, not the repository's), a slow minute on the host does not.
Measured on ``sim-pernode-byz`` over ten seeds: spread 7.4% raw, 2.7%
gauged.

Where the work runs in child processes (``run_cluster``,
``run_campaign``) this process is idle, and a background thread takes
the samples, timing the kernel by thread CPU time so that sharing a core
with a worker does not count against it.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import threading
import time
from typing import Iterator

__all__ = ["Gauge", "INTERVAL_S", "REFERENCE_S", "kernel"]

#: The kernel's duration on the machine all times are reported for
#: (about its median on the sandbox this benchmark was sized on).
REFERENCE_S = 1.0e-3

#: Shortest gap between two samples.
INTERVAL_S = 0.05


def kernel() -> int:
    """A fixed mix of interpreter work: dict, list and integer traffic,
    like the beat loops it stands in for."""
    table: dict[int, int] = {}
    queue: list[int] = []
    total = 0
    for index in range(6000):
        table[index & 255] = index
        queue.append(index)
        total += table[index & 255] * 3 % 7
        if len(queue) > 64:
            queue.clear()
    return total


class Gauge:
    """Kernel timings over a run, and the slowdown they imply."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._costs: list[float] = []

    def sample(self, clock=time.perf_counter) -> float:
        """Time the kernel once; return the wall time afterwards."""
        at = time.perf_counter()
        started = clock()
        kernel()
        self._costs.append(clock() - started)
        self._times.append(at)
        return time.perf_counter()

    def due(self, now: float) -> float:
        """Sample if :data:`INTERVAL_S` has passed since the last one.
        Returns the time to resume measuring from, so the kernel's own
        cost never lands in an operation's duration."""
        if self._times and now - self._times[-1] < INTERVAL_S:
            return now
        return self.sample()

    @contextlib.contextmanager
    def background(self) -> Iterator[None]:
        """Sample from a thread while the caller blocks on children."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(INTERVAL_S):
                self.sample(time.thread_time)

        thread = threading.Thread(target=loop, daemon=True)
        self.sample(time.thread_time)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self.sample(time.thread_time)

    def spent(self, start: float, end: float) -> float:
        """Seconds of CPU the kernel itself took over ``[start, end]``."""
        low = bisect.bisect_left(self._times, start)
        high = bisect.bisect_right(self._times, end)
        return sum(self._costs[low:high])

    def slowdown(self, start: float, end: float) -> float:
        """How slow the machine ran over ``[start, end]`` (1.0 = the
        reference): the mean over the samples inside the interval and
        the nearest one on either side."""
        low = max(0, bisect.bisect_left(self._times, start) - 1)
        high = bisect.bisect_right(self._times, end) + 1
        return statistics.fmean(self._costs[low:high]) / REFERENCE_S
