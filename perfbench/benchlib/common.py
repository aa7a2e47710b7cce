"""What every workload shares: the repetition record and the interface."""

from __future__ import annotations

import math
import resource
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .layers import LayerTimer
from .stats import Ops

__all__ = ["Rep", "Workload", "self_peak_rss_mb", "children_peak_rss_mb",
           "draw_index", "stop_resource_tracker"]


@dataclass
class Rep:
    """One repetition: a fixed simulated horizon run once.

    Attributes:
        sim_s: Simulated seconds covered.
        wall_s: Wall seconds the simulation took (set-up excluded).
        scaled_s: ``wall_s`` at the machine's reference speed (see
            :mod:`.calibrate`).
        outputs: Simulated outputs (goodput, flows completed, FCT p50,
            path changes, ...), printed so behaviour changes show.
        layer: Per-layer values only this workload can supply (traced
            repetitions only).
        attributed_s: Time the layer wrappers named (traced only).
        attribution_base_s: The time ``attributed_s`` is a share of;
            ``wall_s`` when 0.
        extra: Workload-specific end-to-end values (service latencies).
    """

    sim_s: float
    wall_s: float
    scaled_s: float
    outputs: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    attributed_s: float = 0.0
    attribution_base_s: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """Wall seconds per simulated second (paper Fig. 2) at the
        machine's reference speed; infinite when nothing was simulated."""
        return self.scaled_s / self.sim_s if self.sim_s > 0 else math.inf

    @property
    def raw_slowdown(self) -> float:
        """Wall seconds per simulated second as the clock read them."""
        return self.wall_s / self.sim_s if self.sim_s > 0 else math.inf


class Workload:
    """Interface of one named workload.

    A run generates :meth:`inputs` from the seed once, then repeats
    :meth:`setup` (timed: ``setup_s``) and :meth:`run` until its time is
    up.  ``operation`` states what one attempted operation is.
    """

    name = ""
    why = ""
    loop = "batch"
    operation = ""
    #: Set-ups timed on their own before each untraced repetition, so
    #: ``setup_s`` is a median of many samples spread over the run.
    setup_only = 3
    #: Untraced repetitions a run makes at least, however long it takes.
    min_reps = 1
    #: Repetitions made before the run starts timing and then dropped.
    warmup_reps = 0
    #: Whether the timed work runs in other processes too, on any CPU
    #: (selects the all-CPU machine-speed reference).
    multiprocess = False

    def inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, inputs: Any, timer: Optional[LayerTimer]) -> Any:
        raise NotImplementedError

    def run(self, state: Any, inputs: Any, ops: Ops,
            timer: Optional[LayerTimer]) -> Rep:
        raise NotImplementedError

    def enough(self, reps: "list[Rep]") -> bool:
        """Whether the repetitions so far carry enough samples (checked
        once the run's time is up)."""
        return True

    def close(self, state: Any) -> None:
        """Release what :meth:`setup` made (processes, files)."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that simulates."""
        return self_peak_rss_mb()

    def describe(self) -> Dict[str, Any]:
        """The workload's parameters, for the record."""
        return {}


def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def draw_index(untraced_runs: int, timer: Optional[LayerTimer]) -> int:
    """Which input draw a repetition plays: untraced repetitions cycle
    through the draws; a traced one replays the draw of the untraced
    repetition before it, so the tracing overhead compares like inputs."""
    return untraced_runs - 1 if timer is not None else untraced_runs



def stop_resource_tracker() -> None:
    """Stop :mod:`multiprocessing`'s resource tracker and wait for it.

    The sweep's shared memory starts the tracker as a child process,
    which otherwise lingers after this process exits until it reads
    end-of-file on its pipe.  Every segment is unlinked by then, so it
    has nothing left to clean up.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
