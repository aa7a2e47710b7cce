"""The benchmark's own arithmetic: percentiles, open-loop timing, failures.

Everything here is plain Python with no dependency on :mod:`repro`, so
``perfbench/test_benchlib.py`` can pin it down exactly.

* :func:`nearest_rank` is the nearest-rank percentile: the smallest
  sample with at least ``p`` percent of the samples at or below it.  It
  always returns an observed sample, never an interpolation.
* :class:`OpenLoop` times requests sent on a schedule.  A request's
  latency runs from when it was *due*, not from when the generator got
  round to sending it, so a stall that delays later sends shows in their
  latency; the generator's own lateness is reported beside it.
* :class:`Ops` counts attempted and failed operations.  A request that
  was refused or lost its connection is failed and has infinite latency,
  so it misses every latency limit.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

__all__ = ["nearest_rank", "latency_summary", "LATENCY_PERCENTS",
           "OpenLoop", "Ops"]

#: The percentiles :func:`latency_summary` reports.
LATENCY_PERCENTS = (50.0, 99.0)


def nearest_rank(samples: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile of ``samples``.

    Rank ``ceil(percent / 100 * n)`` (at least 1) of the sorted samples.
    ``inf`` samples sort last, so failed requests land in the tail.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < percent <= 100.0:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank p50 and p99 plus the sample count and tail depth.

    ``beyond_p<N>`` is how many samples lie strictly above rank
    ``ceil(N/100 * n)``: a percentile is only worth reporting when at
    least ten samples lie beyond it.
    """
    result: Dict[str, float] = {"count": float(len(samples))}
    for percent in LATENCY_PERCENTS:
        rank = max(1, math.ceil(percent / 100.0 * len(samples)))
        key = f"p{percent:g}"
        result[key] = nearest_rank(samples, percent)
        result[f"beyond_{key}"] = float(len(samples) - rank)
    return result


class Ops:
    """Attempted and failed operations of one run, by kind."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}

    def check(self, kind: str, ok: bool, count: int = 1) -> bool:
        """Record ``count`` operations of ``kind``, all failed unless
        ``ok``; returns ``ok``."""
        self.attempted[kind] = self.attempted.get(kind, 0) + count
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + count
        return ok

    def tally(self, kind: str, attempted: int, failed: int) -> None:
        """Record ``attempted`` operations of which ``failed`` failed."""
        if not 0 <= failed <= attempted:
            raise ValueError(f"{failed} failed of {attempted} attempted")
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        if failed:
            self.failed[kind] = self.failed.get(kind, 0) + failed

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def error_rate(self) -> float:
        """Failed over attempted (0 when nothing was attempted)."""
        attempted = self.total_attempted
        return self.total_failed / attempted if attempted else 0.0

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {kind: {"attempted": count,
                       "failed": self.failed.get(kind, 0)}
                for kind, count in sorted(self.attempted.items())}


class OpenLoop:
    """Requests sent on a fixed schedule and answered in send order.

    Request ``i`` is due at ``start_s + i / rate_hz``.  Call
    :meth:`sent` when it actually leaves, then :meth:`answered` for the
    oldest outstanding request.  Requests that are never answered are
    failed by :meth:`close`.
    """

    def __init__(self, start_s: float, rate_hz: float) -> None:
        if rate_hz <= 0.0:
            raise ValueError(f"rate must be positive, got {rate_hz}")
        self.start_s = start_s
        self.rate_hz = rate_hz
        self.due_s: List[float] = []
        self.lateness_s: List[float] = []
        self.latency_s: List[float] = []
        self.failures = 0
        self._next_answer = 0

    def due(self, index: int) -> float:
        """When request ``index`` is due to be sent."""
        return self.start_s + index / self.rate_hz

    def shift(self, delay_s: float) -> None:
        """Move every request not yet sent ``delay_s`` later (the
        generator was paused for that long)."""
        self.start_s += delay_s

    @property
    def num_sent(self) -> int:
        return len(self.due_s)

    @property
    def outstanding(self) -> int:
        return len(self.due_s) - self._next_answer

    def sent(self, now_s: float) -> int:
        """Record that the next request left at ``now_s``; returns its
        index."""
        index = len(self.due_s)
        due = self.due(index)
        self.due_s.append(due)
        self.lateness_s.append(max(0.0, now_s - due))
        return index

    def answered(self, now_s: float, ok: bool = True) -> None:
        """The oldest outstanding request got its response at ``now_s``.

        A response that reports an error is a failure: infinite latency.
        """
        if self.outstanding <= 0:
            raise ValueError("response without an outstanding request")
        due = self.due_s[self._next_answer]
        self._next_answer += 1
        if ok:
            self.latency_s.append(now_s - due)
        else:
            self.failures += 1
            self.latency_s.append(math.inf)

    def close(self) -> int:
        """Fail every request still outstanding (connection refused or
        reset); returns how many."""
        lost = self.outstanding
        for _ in range(lost):
            self.answered(math.inf, ok=False)
        return lost
