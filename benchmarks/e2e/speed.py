"""Host-speed index: timings expressed at a fixed reference host speed.

The benchmark runs on shared 2-vCPU hosts whose speed drifts by 10-40%
over seconds to minutes (other tenants' load on the same cores and
caches), and every wall-clock median drifts with it.  The benchmark
therefore also times one fixed reference kernel -- an interpreter loop,
a dict of small tuples built and sorted, and a NumPy sort: the kinds of
work the simulator spends its time in.  The kernel time over
:data:`REFERENCE_MS` is the host's speed factor at that moment.  Every timed operation is divided by the factor measured
next to it, so a slow host phase cancels out while a slower program
still shows: the kernel is benchmark code no program change touches.
Raw timings are printed beside the normalized ones.

The kernel runs in the process that does the work.  Timed in a
separate helper process instead, it tracked the workload's slowdowns
poorly (quartile spread 8% over ten runs, against 1.5% in-process and
12% raw).  So work in the timing process is normalized by samples taken
between its operations, and a child process that times its own
start-up (a cold_cli sample, an import probe, a daemon launch) reports
samples it took right after (:func:`child_samples_ms`).  The serve
client samples between its requests.  A sweep grid runs for seconds in
worker processes the benchmark cannot put the kernel into; it is
normalized by :meth:`SpeedIndex.concurrent`, which samples on a
background thread while the grid runs.  The dict part of the kernel
matters there: page placement in the workers slows about twice as much
as a bare loop and sort when the host is busy.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator

#: median kernel time on the baseline host (2 vCPU Xeon, Python 3.11,
#: NumPy 2.4) in a quiet period.
REFERENCE_MS = 4.3


class Window:
    """Kernel samples taken while one block of work ran."""

    def __init__(self) -> None:
        self.cpu_ms: list[float] = []

    def factor(self) -> float:
        """Mean speed factor over the block."""
        return statistics.fmean(self.cpu_ms) / REFERENCE_MS


class SpeedIndex:
    """Times the reference kernel in the calling thread, on request."""

    def __init__(self) -> None:
        import numpy as np

        self._values = np.random.default_rng(12345).random(50_000)
        self.samples_ms: list[float] = []

    def _kernel(self) -> float:
        import numpy as np

        total = 0
        for i in range(20_000):
            total += i & 7
        table = {}
        for i in range(6_000):
            table[i * 7919 % 30011] = (i, i & 7)
        total += len(sorted(table.items()))
        return total + float(np.sort(self._values)[0])

    def sample(self, repeats: int = 3) -> float:
        """Record the median of ``repeats`` kernel timings; returns its
        speed factor."""
        times = []
        for _ in range(repeats):
            began = time.perf_counter()
            self._kernel()
            times.append((time.perf_counter() - began) * 1e3)
        self.samples_ms.append(statistics.median(times))
        return self.last()

    @contextmanager
    def concurrent(self, period_s: float) -> Iterator["Window"]:
        """Sample the kernel on a background thread while the block
        runs, once every ``period_s``; yields the block's
        :class:`Window`.

        For work that runs for seconds in other processes (a sweep grid
        in the workers): the host's speed varies within a second, so
        samples taken only before and after such work miss most of what
        slowed it.  The kernel is timed in thread CPU time, so the
        samples measure how fast the host executes it, not how long the
        thread waited for a core the work's own processes held.
        """
        window = Window()
        done = threading.Event()

        def sample() -> None:
            while True:
                began = time.thread_time()
                self._kernel()
                window.cpu_ms.append((time.thread_time() - began) * 1e3)
                if done.wait(period_s):
                    return

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield window
        finally:
            done.set()
            thread.join()

    def last(self) -> float:
        """Speed factor of the latest sample (> 1: slower than the
        reference host)."""
        return self.samples_ms[-1] / REFERENCE_MS

    def factor(self) -> float:
        """Median speed factor of the run."""
        return factor_of(self.samples_ms)


def child_samples_ms() -> list[float]:
    """Three kernel samples taken now, for a child process to report
    beside the start-up time it measured."""
    index = SpeedIndex()
    for _ in range(3):
        index.sample()
    return index.samples_ms


def factor_of(samples_ms: list[float]) -> float:
    """Speed factor of a set of samples, such as a child reported."""
    return statistics.median(samples_ms) / REFERENCE_MS
