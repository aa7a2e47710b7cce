"""Machine-speed correction: a reference kernel timed around each chunk.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes (neighbours on the same cores, frequency changes),
and a fixed piece of work can take 30% longer in one run than in the
next.  Timing the same work twice cannot separate that drift from a
change in the program.

So every timed chunk of simulation is bracketed by a fixed reference
kernel (pure-Python dict and integer work plus NumPy sorting, ~20 ms,
timed three times and the median kept) that never changes with the
program.  A chunk's *scaled* time is its
wall time times ``REFERENCE_S`` over the mean of the two reference
timings beside it: the wall time the chunk would have taken on the
machine running at its reference speed.  Chunks are kept around a
second or shorter, because only a reference measured right beside the
work tracks the drift.  Both raw and scaled times are reported.

The drift differs between cores.  Work spread over several processes
(sweep workers, the service's server) is scaled by the mean reference
time over every CPU the run may use: the kernel runs once pinned to
each, and the runner's CPU affinity is restored before the next chunk.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable

import numpy as np

__all__ = ["REFERENCE_S", "reference_s", "ScaledClock"]

#: Nominal duration of one reference kernel (the machine's reference
#: speed; any fixed value works, this one keeps scaled times near raw
#: ones on a 2-core x86 cloud VM).
REFERENCE_S = 0.018

#: Kernel runs per reference timing (their median is used).
KERNEL_RUNS = 3

_DATA = np.random.default_rng(0).random(20_000)


def reference_s(all_cpus: bool = False) -> float:
    """Time the reference kernel (on each usable CPU in turn when
    ``all_cpus``); returns the mean over CPUs of the median of
    ``KERNEL_RUNS`` runs."""
    if all_cpus and hasattr(os, "sched_getaffinity"):
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            times = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    times.append(_median_kernel_s())
            finally:
                os.sched_setaffinity(0, allowed)
            return sum(times) / len(times)
    return _median_kernel_s()


def _median_kernel_s() -> float:
    """The median of ``KERNEL_RUNS`` kernel timings: one run caught by
    a short stall of the machine does not set the scale of a chunk."""
    return statistics.median(_kernel_s() for _ in range(KERNEL_RUNS))


def _kernel_s() -> float:
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(100_000):
        total += i * i % 7
        table[i % 1000] = total
    for _ in range(20):
        ordered = np.sort(_DATA)
        total += int(ordered[::7].sum())
    return time.perf_counter() - start


class ScaledClock:
    """Accumulates raw and speed-scaled wall time of timed chunks.

    The reference kernel runs before the first chunk and after every
    chunk (outside the timed intervals), so consecutive chunks share
    the reference measured between them.  ``all_cpus`` selects the
    per-CPU mean (for work that runs in other processes).
    """

    def __init__(self, all_cpus: bool = False) -> None:
        self.all_cpus = all_cpus
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._last_ref = reference_s(all_cpus)

    def time(self, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``function`` as one chunk; returns its result."""
        start = time.perf_counter()
        result = function(*args, **kwargs)
        self.add(time.perf_counter() - start)
        return result

    def add(self, elapsed_s: float) -> None:
        """Account a chunk the caller timed, which just ended."""
        ref = reference_s(self.all_cpus)
        self.wall_s += elapsed_s
        self.scaled_s += elapsed_s * REFERENCE_S / ((self._last_ref + ref)
                                                    / 2.0)
        self._last_ref = ref
