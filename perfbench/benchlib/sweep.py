"""``sweep-paths``: the RTT and path-change sweep behind Figs. 3-9, 13.

Starlink S1 with the top-100 cities, the seeded permutation pairs,
:meth:`repro.Hypatia.compute_timelines` at 100 ms steps over 10 s with
two worker processes.

One operation is one RTT sample: one pair at one snapshot, checked
against the geodesic lower bound.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .calibrate import ScaledClock
from .common import (Rep, Workload, children_peak_rss_mb,
                     self_peak_rss_mb)
from .layers import LayerTimer
from .stats import Ops

__all__ = ["SweepPaths", "rtt_bound_violations"]


def rtt_bound_violations(timeline, bound_s: float) -> Tuple[int, int]:
    """``(connected samples, samples below bound_s)`` of one timeline.

    No path through space between two surface points is shorter than
    the great circle, so no RTT may undercut the geodesic RTT.
    """
    rtts = timeline.rtts_s
    connected = np.isfinite(rtts)
    below = connected & (rtts < bound_s * (1.0 - 1e-12))
    return int(connected.sum()), int(below.sum())


class SweepPaths(Workload):
    name = "sweep-paths"
    why = ("batch, 1 parent + 2 workers: S1 100-city permutation "
           "RTT/path sweep at 100 ms steps (Figs. 3-9, 13); topology and "
           "routing dominate")
    operation = ("one RTT sample (one pair at one snapshot) checked "
                 "against the geodesic lower bound")

    NUM_CITIES = 100
    #: Short, so each repetition is one chunk between reference-kernel
    #: runs (see calibrate.py); a run repeats it several times.
    HORIZON_S = 10.0
    STEP_S = 0.1
    WORKERS = 2
    multiprocess = True
    #: The first sweep of a process also starts multiprocessing's
    #: resource tracker and warms the forked workers' imports; it ran
    #: ~30% slower than the rest on a 2-vCPU x86 VM, so it is dropped.
    warmup_reps = 1
    #: Four ~5 s repetitions (its inputs never change within a run, so
    #: the median only has machine noise to set aside).
    min_reps = 4

    def describe(self) -> Dict[str, Any]:
        return {"shell": "S1", "cities": self.NUM_CITIES,
                "pairs": "random permutation", "horizon_s": self.HORIZON_S,
                "step_s": self.STEP_S, "workers": self.WORKERS}

    def inputs(self, seed: int) -> List[Tuple[int, int]]:
        from repro import random_permutation_pairs
        return random_permutation_pairs(self.NUM_CITIES, seed=seed)

    def setup(self, inputs, timer: Optional[LayerTimer]):
        from repro import Hypatia
        return Hypatia.from_shell_name("S1", num_cities=self.NUM_CITIES)

    def run(self, hypatia, inputs, ops: Ops,
            timer: Optional[LayerTimer]) -> Rep:
        from repro.analysis.paths import pair_path_stats
        from repro.geo.distance import geodesic_rtt_s
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry() if timer is not None else None
        clock = ScaledClock(all_cpus=True)
        timelines = clock.time(
            hypatia.compute_timelines, inputs, duration_s=self.HORIZON_S,
            step_s=self.STEP_S, workers=self.WORKERS, metrics=registry)
        stations = hypatia.ground_stations
        connected = below = 0
        rtts = []
        for (src, dst), timeline in timelines.items():
            bound = geodesic_rtt_s(stations[src].position,
                                   stations[dst].position)
            samples, bad = rtt_bound_violations(timeline, bound)
            connected += samples
            below += bad
            finite = timeline.rtts_s[np.isfinite(timeline.rtts_s)]
            rtts.extend(finite.tolist())
        ops.tally("rtt_sample", connected, below)
        stats = pair_path_stats(timelines, hypatia.network.num_satellites)
        outputs = {
            "pairs": float(len(timelines)),
            "samples": float(connected),
            "path_changes": float(sum(s.num_path_changes for s in stats)),
            "rtt_p50_ms": float(np.median(rtts)) * 1e3 if rtts else 0.0,
        }
        rep = Rep(sim_s=self.HORIZON_S, wall_s=clock.wall_s,
                  scaled_s=clock.scaled_s, outputs=outputs)
        if timer is not None:
            self._attribute(rep, timer, registry)
        return rep

    @staticmethod
    def _attribute(rep: Rep, timer: LayerTimer, registry) -> None:
        """Merge the workers' records and attribute the sweep's time.

        The parent waits in its pool block (``sweep.scatter_gather``)
        while the workers run, so the attributed time is the parent's
        named time outside that block plus each worker's named time,
        against the parent's wall with the longest worker's chunk
        replaced by every worker's chunk (``sweep.worker.*.wall_s``).
        The pool's own overhead (fork, pickling, shutdown) stays in the
        base, unattributed; the wait is taken out of ``sweep.self_s``.
        """
        from repro.obs import spans
        pool_s = sum(phase["total_s"]
                     for phase in spans.ACTIVE.phase_summary()["phases"]
                     if phase["name"] == "sweep.scatter_gather")
        timer.stats["sweep.sweep_timelines"][2] -= pool_s
        parent_s = sum(timer.layer_self_s().values())
        worker_s = 0.0
        for dump in timer.collect_dumps():
            timer.absorb(dump["stats"])
            worker_s += sum(self_s for _, _, self_s
                            in dump["stats"].values())
            for name, value in dump["counters"].items():
                rep.layer[name] = rep.layer.get(name, 0.0) + value
        walls = [sum(registry.series_logs[name].values)
                 for name in registry.series_names(
                     prefix="sweep.worker.", suffix=".wall_s")]
        rep.attributed_s = parent_s + worker_s
        rep.attribution_base_s = (rep.wall_s - max(walls, default=0.0)
                                  + sum(walls))
        rep.layer["sweep.wall_s"] = registry.gauges["sweep.wall_s"].value
        rep.layer["sweep.worker_imbalance"] = (
            max(walls) / (sum(walls) / len(walls)) if walls else 0.0)

    def peak_rss_mb(self) -> float:
        """The parent or its largest worker, whichever peaked higher."""
        return max(self_peak_rss_mb(), children_peak_rss_mb())
