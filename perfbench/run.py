"""perfbench: one benchmark for the paper's pipelines.

Four workloads, each a named pipeline of :mod:`repro` driven through its
public API with inputs generated here from ``--seed``:

* ``packet-fig2``  — the Fig. 2 packet run (batch);
* ``fluid-churn``  — the §5.4 max-min timeline with flow churn (batch);
* ``sweep-paths``  — the RTT/path-change snapshot sweep (batch);
* ``service-live`` — the live service behind its server, one closed-loop
  and one open-loop connection.

A run repeats the workload's fixed simulated horizon until ``--seconds``
of wall time are used (and at least the workload's ``min_reps``
untraced repetitions are made), checks every repetition's outputs, and
reports medians::

    python3 perfbench/run.py --workload packet-fig2 --seed 3 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics (slowdown, setup_s,
peak_rss_mb).  Times are scaled to the machine's reference speed,
measured by a fixed kernel beside every timed chunk
(``benchlib/calibrate.py``); the raw times are in the record.
``--trace 1`` alternates untraced repetitions with traced ones, which
install timing wrappers around each layer's public functions
(``benchlib/layers.py``) and the ``repro.obs.spans`` profiler,
and reports the per-layer metrics, the attribution of wall time to
layers and the tracing overhead.  Without ``--workload`` every workload
runs in turn and no result line is printed; ``--describe`` prints the
table of which per-layer metric should move which end-to-end metric on
which workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it, ``RECORD {...}``, is the full record: provenance, the
workload's parameters, every end-to-end metric including the live
service's, the simulated outputs and the checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
from statistics import median
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import layers  # noqa: E402
from benchlib.calibrate import ScaledClock  # noqa: E402
from benchlib.common import Rep, Workload, stop_resource_tracker  # noqa: E402
from benchlib.metrics import (END_TO_END, SERVICE_END_TO_END,  # noqa: E402
                              WORKLOADS, per_layer_names)
from benchlib.stats import Ops  # noqa: E402

#: Where runs keep their checkpoints and worker dumps (removed on exit).
SCRATCH_DIR = os.path.join(ROOT, ".perfbench")
#: What the result line reports for a latency that failed requests made
#: infinite (JSON has no infinity).
MISSED_LIMIT = 1e12


def make_workload(name: str, scratch: str) -> Workload:
    from benchlib.fluid import FluidChurn
    from benchlib.packet import PacketFig2
    from benchlib.service import ServiceLive
    from benchlib.sweep import SweepPaths
    if name == "packet-fig2":
        return PacketFig2()
    if name == "fluid-churn":
        return FluidChurn()
    if name == "sweep-paths":
        return SweepPaths()
    if name == "service-live":
        return ServiceLive(ROOT, scratch)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

class Traced:
    """The wrappers and span profiler of one traced repetition."""

    def __init__(self, scratch: str) -> None:
        from repro.obs import spans
        self.timer = layers.install(
            layers.LayerTimer(os.path.join(scratch, "workers")))
        self.spans = spans
        self.profiler = None

    def start(self) -> None:
        """Forget set-up work; start the span profiler."""
        self.timer.reset(instances=False)
        self.profiler = self.spans.install()

    def finish(self) -> Dict[str, float]:
        """Stop profiling and unwrap; returns span totals by name."""
        self.spans.uninstall()
        self.timer.uninstall()
        summary = self.profiler.phase_summary()
        return {phase["name"]: phase["total_s"]
                for phase in summary["phases"]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            scratch: str, ops: Ops) -> Dict[str, Any]:
    """Run the workload's warm-up repetitions, then timed ones until
    ``seconds`` elapse; returns the raw data."""
    inputs = workload.inputs(seed)
    for _ in range(workload.warmup_reps):
        state, _ = timed_setup(workload, inputs, None)
        try:
            workload.run(state, inputs, Ops(), None)
        finally:
            workload.close(state)
            del state
    setups: List[Tuple[float, float]] = []
    reps: List[Rep] = []
    traced_reps: List[Rep] = []
    layer_rows: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(traced_reps) < len(reps)
        if not traced:
            for _ in range(workload.setup_only):
                state, setup = timed_setup(workload, inputs, None)
                setups.append(setup)
                workload.close(state)
                del state
        tracing = Traced(scratch) if traced else None
        timer = tracing.timer if tracing else None
        state, setup = timed_setup(workload, inputs, timer)
        try:
            if tracing:
                tracing.start()
            try:
                rep = workload.run(state, inputs, ops, timer)
            finally:
                span_totals = tracing.finish() if tracing else {}
        finally:
            workload.close(state)
            del state
        label = "traced" if traced else "untraced"
        print(f"rep {len(reps) + len(traced_reps) + 1} ({label}): "
              f"setup {setup[1]:.4f} s, slowdown {rep.slowdown:.4f} "
              f"(raw {rep.raw_slowdown:.4f}: wall {rep.wall_s:.3f} s / "
              f"sim {rep.sim_s:g} s); "
              + ", ".join(f"{k}={v:.6g}" for k, v in rep.outputs.items()),
              flush=True)
        if traced:
            traced_reps.append(rep)
            layer_rows.append(layer_metrics(tracing.timer, rep,
                                            span_totals))
        else:
            setups.append(setup)
            reps.append(rep)
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and workload.enough(reps)
                and (traced_reps if trace
                     else len(reps) >= workload.min_reps)):
            break
    return {"setups": setups, "reps": reps, "traced_reps": traced_reps,
            "layer_rows": layer_rows}


def timed_setup(workload: Workload, inputs: Any,
                timer: Optional[layers.LayerTimer]
                ) -> Tuple[Any, Tuple[float, float]]:
    """Set the workload up from a collected heap; returns the state and
    the set-up's ``(raw, scaled)`` seconds."""
    gc.collect()
    clock = ScaledClock(all_cpus=workload.multiprocess)
    state = clock.time(workload.setup, inputs, timer)
    return state, (clock.wall_s, clock.scaled_s)


def layer_metrics(timer: layers.LayerTimer, rep: Rep,
                  span_totals: Dict[str, float]) -> Dict[str, float]:
    """One traced repetition's per-layer metrics (all names present)."""
    counts = layers.counters(timer)
    for name, value in rep.layer.items():
        if name in counts:
            counts[name] += value
    values = {name: 0.0 for name, _, _ in per_layer_names()}
    values.update({name: value for name, value in rep.layer.items()
                   if name in values})
    run_s = timer.total_s("simulation.run")
    events = counts["simulation.events"]
    delivered = counts["simulation.packets_delivered"]
    dropped = counts["simulation.packets_dropped"]
    sent = counts["transport.packets_sent"]
    full, repairs = counts["routing.full_solves"], counts["routing.repairs"]
    values.update({
        "simulation.run_s": run_s,
        "simulation.events": events,
        "simulation.events_per_s": events / run_s if run_s else 0.0,
        "simulation.peak_queue_len": counts["simulation.peak_queue_len"],
        "simulation.position_computes":
            counts["simulation.position_computes"],
        "simulation.enqueue_s": timer.total_s("simulation.enqueue"),
        "simulation.delivered_ratio": (delivered / (delivered + dropped)
                                       if delivered + dropped else 0.0),
        "obs.trace_emitted": counts["obs.trace_emitted"],
        "obs.emit_s": timer.total_s("obs.emit"),
        "obs.probe_s": timer.total_s("obs.probe"),
        "transport.retransmits": counts["transport.retransmits"],
        "transport.timeouts": counts["transport.timeouts"],
        "transport.goodput_ratio": (counts["transport.packets_acked"] / sent
                                    if sent else 0.0),
        "cc.hook_calls": timer.calls("cc.hook"),
        "cc.hook_s": timer.total_s("cc.hook"),
        "routing.route_to_many_calls": timer.calls("routing.route_to_many"),
        "routing.route_to_many_s": timer.total_s("routing.route_to_many"),
        "routing.trees_computed": counts["routing.trees_computed"],
        "routing.dijkstra_calls": counts["routing.dijkstra_calls"],
        "routing.full_solves": full,
        "routing.repairs": repairs,
        "routing.repair_ratio": (repairs / (full + repairs)
                                 if full + repairs else 0.0),
        "topology.snapshot_calls": timer.calls("topology.snapshot"),
        "topology.snapshot_s": timer.total_s("topology.snapshot"),
        "fluid.waterfill_calls": timer.calls("fluid.waterfill"),
        "fluid.waterfill_s": timer.total_s("fluid.waterfill"),
        "fluid.matrix_build_s": timer.total_s("fluid.matrix_build"),
        "fluid.paths_s": span_totals.get("fluid.paths", 0.0),
        "traffic.spawner_install_s":
            timer.total_s("traffic.spawner_install"),
        "traffic.flows_started": counts["traffic.flows_started"],
        "traffic.flows_completed": counts["traffic.flows_completed"],
        "service.advance_s": timer.total_s("service.advance"),
        "service.save_s": timer.total_s("service.save"),
        "service.resume_s": timer.total_s("service.resume"),
        "service.attach_s": timer.total_s("service.attach"),
        "service.inject_s": timer.total_s("service.inject"),
    })
    for layer, self_s in timer.layer_self_s().items():
        values[f"{layer}.self_s"] = self_s
    for layer, calls in timer.layer_calls().items():
        values[f"{layer}.calls"] = calls
    base = rep.attribution_base_s or rep.wall_s
    values["unattributed_s"] = max(0.0, base - rep.attributed_s)
    values["attributed_share"] = rep.attributed_s / base
    return values


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def summarize(workload: Workload, data: Dict[str, Any], ops: Ops,
              trace: bool) -> Dict[str, Any]:
    """End-to-end values (and per-layer ones when traced)."""
    reps: List[Rep] = data["reps"]
    end_to_end: Dict[str, Optional[float]] = {
        "slowdown": median([rep.slowdown for rep in reps]),
        "setup_s": median([scaled for _, scaled in data["setups"]]),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    service: Dict[str, Any] = {}
    if workload.name == "service-live":
        from benchlib.service import latency_values
        service = latency_values(reps)
    for name, _, _ in SERVICE_END_TO_END:
        end_to_end[name] = service.get(name)
    end_to_end["error_rate"] = ops.error_rate
    summary: Dict[str, Any] = {"end_to_end": end_to_end, "service": service}
    if trace:
        rows = data["layer_rows"]
        per_layer = {name: sum(row[name] for row in rows) / len(rows)
                     for name in rows[0]}
        for name, _, _ in SERVICE_END_TO_END:
            value = end_to_end[name]
            per_layer[name] = float(value) if value is not None else 0.0
        traced = median([rep.slowdown for rep in data["traced_reps"]])
        per_layer["trace.slowdown"] = traced
        per_layer["trace.untraced_slowdown"] = end_to_end["slowdown"]
        per_layer["trace.overhead_slowdown"] = traced - end_to_end["slowdown"]
        summary["per_layer"] = per_layer
    return summary


def run_one(name: str, seed: int, seconds: float, trace: bool,
            scratch: str) -> Dict[str, Any]:
    from benchlib.provenance import provenance
    workload = make_workload(name, scratch)
    ops = Ops()
    print(f"perfbench {name}: seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}", flush=True)
    data = measure(workload, seed, seconds, trace, scratch, ops)
    summary = summarize(workload, data, ops, trace)
    units = {name: unit for name, unit, _, _ in END_TO_END}
    units.update({name: unit for name, unit, _ in SERVICE_END_TO_END})
    print("end-to-end:")
    for metric, value in summary["end_to_end"].items():
        shown = ("n/a (service-live only)" if value is None
                 else f"{value:.6g} {units[metric]}")
        print(f"  {metric:<24} {shown}")
    print(f"  operations: {ops.total_failed} failed of "
          f"{ops.total_attempted} attempted; one operation is "
          f"{workload.operation}")
    if trace:
        print("per layer (traced repetitions, mean):")
        for layer_name, value in summary["per_layer"].items():
            print(f"  {layer_name:<32} {value:.6g}")
    record = {
        "workload": name, "why": workload.why, "loop": workload.loop,
        "operation": workload.operation,
        "parameters": workload.describe(),
        "provenance": provenance(ROOT, seed),
        "seconds": seconds, "trace": int(trace),
        "repetitions": len(data["reps"]),
        "traced_repetitions": len(data["traced_reps"]),
        "slowdowns": [rep.slowdown for rep in data["reps"]],
        "raw_slowdowns": [rep.raw_slowdown for rep in data["reps"]],
        "raw_slowdown": median([rep.raw_slowdown for rep in data["reps"]]),
        "setups_s": [scaled for _, scaled in data["setups"]],
        "raw_setups_s": [raw for raw, _ in data["setups"]],
        "outputs": [rep.outputs for rep in data["reps"]
                    + data["traced_reps"]],
        "checks": ops.as_dict(),
        **summary,
    }
    print("RECORD " + json.dumps(record, default=repr), flush=True)
    return {"summary": summary, "ops": ops}


def result_line(summary: Dict[str, Any], ops: Ops, trace: bool) -> str:
    """The final line: exactly correct/attempted/failed/metrics."""
    if trace:
        metrics = {name: {"value": float(summary["per_layer"][name]),
                          "unit": unit}
                   for name, unit, _ in per_layer_names()}
    else:
        metrics = {name: {"value": float(summary["end_to_end"][name]),
                          "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            # Only failed requests make a latency infinite; the run is
            # then incorrect and the value reads as missing every limit.
            entry["value"] = MISSED_LIMIT
    return json.dumps({"correct": ops.total_failed == 0,
                       "attempted": ops.total_attempted,
                       "failed": ops.total_failed,
                       "metrics": metrics})


def describe() -> Dict[str, Any]:
    """The metric catalogue and the table of predicted effects."""
    from benchlib.metrics import MOVES
    return {
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "service_end_to_end": [{"name": name, "unit": unit,
                                "better": better}
                               for name, unit, better in SERVICE_END_TO_END],
        "moves": [{"layer_metric": name, "moves": list(moves),
                   "on": list(where)}
                  for name, (moves, where) in MOVES.items()],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="perfbench: the paper's pipelines, end to end and "
                    "per layer")
    parser.add_argument("--workload", default=None, choices=WORKLOADS,
                        help="one workload (default: all four, no result "
                             "line)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the metrics and which per-layer metric "
                             "should move which end-to-end metric where, "
                             "as JSON, and exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=1))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    scratch = os.path.join(SCRATCH_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        names = [args.workload] if args.workload else list(WORKLOADS)
        outcome = None
        for name in names:
            outcome = run_one(name, args.seed, args.seconds,
                              bool(args.trace), scratch)
        if args.workload:
            print(result_line(outcome["summary"], outcome["ops"],
                              bool(args.trace)), flush=True)
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_DIR)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
