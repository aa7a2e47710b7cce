"""Every metric the benchmark reports, and which one should move which.

``END_TO_END`` are the metrics a user of the system sees; the untraced
run reports them on every workload and ``BENCHMARK.json`` bounds them.
``SERVICE_END_TO_END`` are the live service's client-observed metrics:
they exist on ``service-live`` only, so they travel with the traced
run's per-layer metrics (zero elsewhere) and in every run's printed
record.  ``PER_LAYER`` are the traced run's metrics, named after the
:mod:`repro` module they belong to.

``MOVES`` is the table of predictions: for each per-layer metric, the
end-to-end metrics it should move and the workloads where it should
move them.  A change that claims a gain on one layer cites these rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .layers import LAYERS

__all__ = ["END_TO_END", "SERVICE_END_TO_END", "PER_LAYER", "MOVES",
           "WORKLOADS", "per_layer_names"]

WORKLOADS = ("packet-fig2", "fluid-churn", "sweep-paths", "service-live")

#: (name, unit, better, bound): the untraced run's metrics.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("slowdown", "s/s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: (name, unit, better): client-observed on ``service-live`` only.
SERVICE_END_TO_END: List[Tuple[str, str, str]] = [
    ("status_p50_ms", "ms", "lower"),
    ("status_p99_ms", "ms", "lower"),
    ("status_samples", "count", "higher"),
    ("status_lateness_p99_ms", "ms", "lower"),
    ("attach_p50_ms", "ms", "lower"),
    ("checkpoint_save_s", "s", "lower"),
    ("checkpoint_load_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
]

_PKT = ("packet-fig2",)
_SVC = ("service-live",)
_PKT_SVC = ("packet-fig2", "service-live")
_SWEEP = ("sweep-paths",)
_FLUID = ("fluid-churn",)

#: (name, unit, better, end-to-end metrics it moves, workloads where).
PER_LAYER: List[Tuple[str, str, str, Tuple[str, ...], Tuple[str, ...]]] = [
    ("simulation.run_s", "s", "lower", ("slowdown",), _PKT_SVC),
    ("simulation.events", "count", "lower", ("slowdown",), _PKT_SVC),
    ("simulation.events_per_s", "1/s", "higher", ("slowdown",), _PKT_SVC),
    ("simulation.peak_queue_len", "count", "lower", ("slowdown",),
     _PKT_SVC),
    ("simulation.position_computes", "count", "lower", ("slowdown",),
     _PKT_SVC),
    ("simulation.enqueue_s", "s", "lower", ("slowdown",), _PKT_SVC),
    ("simulation.delivered_ratio", "ratio", "higher", ("slowdown",),
     _PKT_SVC),
    ("obs.trace_emitted", "count", "lower", ("slowdown",), _PKT),
    ("obs.emit_s", "s", "lower", ("slowdown",), _PKT),
    ("obs.probe_s", "s", "lower", ("slowdown",), _PKT),
    ("transport.retransmits", "count", "lower", ("slowdown",), _PKT_SVC),
    ("transport.timeouts", "count", "lower", ("slowdown",), _PKT_SVC),
    ("transport.goodput_ratio", "ratio", "higher", ("slowdown",),
     _PKT_SVC),
    ("cc.hook_calls", "count", "lower", ("slowdown", "status_p50_ms"),
     _SVC),
    ("cc.hook_s", "s", "lower", ("slowdown", "status_p50_ms"), _SVC),
    ("routing.route_to_many_calls", "count", "lower", ("slowdown",),
     _SWEEP),
    ("routing.route_to_many_s", "s", "lower", ("slowdown",), _SWEEP),
    ("routing.trees_computed", "count", "lower", ("slowdown",), _SWEEP),
    ("routing.dijkstra_calls", "count", "lower", ("slowdown",), _SWEEP),
    ("routing.full_solves", "count", "lower", ("slowdown",), _SWEEP),
    ("routing.repairs", "count", "higher", ("slowdown",), _SWEEP),
    ("routing.repair_ratio", "ratio", "higher", ("slowdown",), _SWEEP),
    ("topology.snapshot_calls", "count", "lower", ("slowdown",),
     ("sweep-paths", "fluid-churn")),
    ("topology.snapshot_s", "s", "lower", ("slowdown",),
     ("sweep-paths", "fluid-churn")),
    ("sweep.wall_s", "s", "lower", ("slowdown", "peak_rss_mb"), _SWEEP),
    ("sweep.worker_imbalance", "ratio", "lower",
     ("slowdown", "peak_rss_mb"), _SWEEP),
    ("fluid.waterfill_calls", "count", "lower", ("slowdown",), _FLUID),
    ("fluid.waterfill_s", "s", "lower", ("slowdown",), _FLUID),
    ("fluid.solves_per_arrival", "ratio", "lower", ("slowdown",), _FLUID),
    ("fluid.matrix_build_s", "s", "lower", ("slowdown",), _FLUID),
    ("fluid.paths_s", "s", "lower", ("slowdown",), _FLUID),
    ("traffic.spawner_install_s", "s", "lower", ("attach_p50_ms",), _SVC),
    ("traffic.flows_started", "count", "higher", ("attach_p50_ms",), _SVC),
    ("traffic.flows_completed", "count", "higher", ("attach_p50_ms",),
     _SVC),
    ("service.advance_s", "s", "lower", ("slowdown", "status_p99_ms"),
     _SVC),
    ("service.save_s", "s", "lower",
     ("slowdown", "status_p99_ms", "checkpoint_save_s"), _SVC),
    ("service.checkpoint_mb", "MB", "lower",
     ("checkpoint_save_s", "checkpoint_load_s"), _SVC),
    ("service.resume_s", "s", "lower", ("checkpoint_load_s",), _SVC),
    ("service.attach_s", "s", "lower", ("attach_p50_ms", "status_p99_ms"),
     _SVC),
    ("service.inject_s", "s", "lower", ("slowdown",), _SVC),
]

#: Per-layer self time and wrapped-call count, attribution and overhead.
_ATTRIBUTION: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [("unattributed_s", "s", "lower"),
       ("attributed_share", "ratio", "higher"),
       ("trace.slowdown", "s/s", "lower"),
       ("trace.untraced_slowdown", "s/s", "lower"),
       ("trace.overhead_slowdown", "s/s", "lower")])

#: name -> (end-to-end metrics moved, workloads where) for the table.
MOVES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    name: (moves, where) for name, _, _, moves, where in PER_LAYER}


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    return ([(name, unit, better) for name, unit, better, _, _ in PER_LAYER]
            + list(SERVICE_END_TO_END) + _ATTRIBUTION)
