"""Timing wrappers around each layer's public functions (traced run only).

:class:`LayerTimer` replaces a function or method with a wrapper that
counts calls and accumulates inclusive and *self* time (inclusive minus
the time of wrapped calls nested inside it).  Labels are
``<layer>.<function>``, the layer being the :mod:`repro` module the
function belongs to, so per-layer self time is the sum over a layer's
labels.  Wall time that no wrapper covers is reported as unattributed.

The timer also remembers every instance of a few classes created while
it is installed (simulators, flows, routing counters, spawners), so the
traced run can read the program's existing counters afterwards.

The timer also keeps the interval of every top-level wrapped call (one
not nested in another): the time its process spent inside named layers,
for comparing with a window measured by another process
(``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
process).

Sweep workers are forked from the process that installed the timer and
inherit the wrappers.  A worker zeroes its copy when it starts a chunk
(before it rebuilds the network) and writes what it recorded to
``<dump_dir>/layers-<pid>-<n>.json`` when the chunk ends;
:meth:`LayerTimer.collect_dumps` merges those files.

Nothing here is imported by the untraced runs' hot paths: the wrappers
exist only between :meth:`LayerTimer.install` and
:meth:`LayerTimer.uninstall`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LayerTimer", "LAYERS", "layer_of", "overlap_s"]

#: The layers reported, in report order (names of :mod:`repro` modules).
LAYERS = ("simulation", "obs", "transport", "cc", "routing", "topology",
          "sweep", "fluid", "traffic", "service")

#: Controller hooks the transport calls (see ``repro.cc.api``).
CC_HOOKS = ("on_rtt_sample", "on_ack", "on_loss", "on_recovery_exit",
            "on_timeout", "post_timeout", "post_ack")


def layer_of(label: str) -> str:
    """The layer of a ``<layer>.<function>`` label."""
    return label.split(".", 1)[0]


def overlap_s(intervals: List[Tuple[float, float]],
              windows: List[Tuple[float, float]]) -> float:
    """Seconds of ``intervals`` that fall inside ``windows`` (each list
    of disjoint ``(start, end)`` pairs)."""
    return sum(max(0.0, min(end, w_end) - max(start, w_start))
               for start, end in intervals for w_start, w_end in windows)


class LayerTimer:
    """Call counts, inclusive and self time per wrapped function.

    Args:
        dump_dir: Where forked workers write what they recorded.
    """

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        #: label -> [calls, inclusive_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: Child-time accumulators of the wrapped calls in progress.
        self._stack: List[float] = []
        #: label -> calls of it in progress (re-entrant calls pass through)
        self._active: Dict[str, int] = {}
        #: (start, end) of every top-level wrapped call
        self.top_level: List[Tuple[float, float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: class name -> instances created while installed
        self.instances: Dict[str, List[Any]] = {}
        self.root_pid = os.getpid()
        self._dumps = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _timed(self, label: str, function: Callable) -> Callable:
        stats, stack, active = self.stats, self._stack, self._active
        top_level = self.top_level
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if active.get(label):
                return function(*args, **kwargs)
            active[label] = 1
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                active[label] = 0
                record = stats.get(label)
                if record is None:
                    record = stats[label] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    top_level.append((start, start + elapsed))

        return wrapper

    def wrap(self, owner: Any, name: str, label: str) -> None:
        """Time ``owner.name`` (a module function or a class attribute,
        plain, static or class method) under ``label``."""
        raw = (owner.__dict__[name] if isinstance(owner, type)
               else getattr(owner, name))
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self._timed(label, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._timed(label, raw.__func__))
        else:
            patched = self._timed(label, raw)
        setattr(owner, name, patched)
        self._patches.append((owner, name, raw))

    def track(self, cls: type) -> None:
        """Remember every instance of ``cls`` constructed from now on."""
        own = cls.__dict__.get("__init__")
        init = cls.__init__
        instances = self.instances.setdefault(cls.__name__, [])

        @functools.wraps(init)
        def tracking_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        cls.__init__ = tracking_init
        self._patches.append((cls, "__init__", own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            if raw is None:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)

    def reset(self, instances: bool = True) -> None:
        """Forget recorded times, and tracked instances unless
        ``instances`` is false (wrappers stay)."""
        self.stats.clear()
        self.top_level.clear()
        self._stack.clear()
        self._active.clear()
        if instances:
            for tracked in self.instances.values():
                tracked.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def calls(self, label: str) -> float:
        record = self.stats.get(label)
        return float(record[0]) if record else 0.0

    def total_s(self, label: str) -> float:
        record = self.stats.get(label)
        return record[1] if record else 0.0

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer (every layer present, 0 when idle)."""
        result = {layer: 0.0 for layer in LAYERS}
        for label, (_, _, self_s) in self.stats.items():
            layer = layer_of(label)
            result[layer] = result.get(layer, 0.0) + self_s
        return result

    def layer_calls(self) -> Dict[str, float]:
        """Wrapped calls per layer."""
        result = {layer: 0.0 for layer in LAYERS}
        for label, (calls, _, _) in self.stats.items():
            layer = layer_of(label)
            result[layer] = result.get(layer, 0.0) + calls
        return result

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------

    def in_worker(self) -> bool:
        return os.getpid() != self.root_pid

    def dump_worker(self, counters: Dict[str, float]) -> None:
        """Write a worker's records (and extra counters) for the parent."""
        os.makedirs(self.dump_dir, exist_ok=True)
        self._dumps += 1
        path = os.path.join(self.dump_dir,
                            f"layers-{os.getpid()}-{self._dumps}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"pid": os.getpid(), "stats": self.stats,
                       "top_level": self.top_level,
                       "counters": counters}, stream)

    def collect_dumps(self) -> List[Dict[str, Any]]:
        """Read and delete the workers' dumps, oldest first."""
        dumps = []
        pattern = os.path.join(self.dump_dir, "layers-*.json")
        for path in sorted(glob.glob(pattern), key=os.path.getmtime):
            with open(path, "r", encoding="utf-8") as stream:
                dumps.append(json.load(stream))
            os.remove(path)
        return dumps

    def absorb(self, stats: Dict[str, List[float]]) -> None:
        """Add another process's records to this one's."""
        for label, (calls, total, self_s) in stats.items():
            record = self.stats.setdefault(label, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += self_s


def install(timer: LayerTimer) -> LayerTimer:
    """Wrap the public functions of every layer and track the counter
    holders.  A forked sweep worker sends its :func:`counters` back
    with its dump when its chunk ends."""
    from repro import sweep as sweep_pkg
    from repro.cc.api import CongestionController
    from repro.fluid import engine as fluid_engine
    from repro.obs.probes import SimulatorProbe
    from repro.obs.trace import RingBufferTracer
    from repro.routing.engine import RoutingEngine, RoutingPerfCounters
    from repro.routing.incremental import (IncrementalPerfCounters,
                                           IncrementalRouter)
    from repro.service.driver import LiveSimulationService
    from repro.service.server import ServiceServer
    from repro.simulation.devices import LinkDevice
    from repro.simulation.forwarding import ForwardingController
    from repro.simulation.positions import PositionService
    from repro.simulation.simulator import PacketSimulator
    from repro.sweep import engine as sweep_engine
    from repro.topology.network import LeoNetwork
    from repro.traffic.arrivals import FlowArrivalStream
    from repro.traffic.spawner import WorkloadSpawner
    from repro.transport.tcp import TcpFlow

    wrap = timer.wrap
    # simulation: the event loop and the per-hop work inside it.
    wrap(PacketSimulator, "run", "simulation.run")
    wrap(LinkDevice, "enqueue", "simulation.enqueue")
    wrap(PositionService, "delay_s", "simulation.delay")
    wrap(ForwardingController, "next_hop_from_satellite",
         "simulation.next_hop")
    wrap(ForwardingController, "next_hop_from_ground", "simulation.next_hop")
    # obs: the enabled tracer and the periodic probe.
    wrap(RingBufferTracer, "emit", "obs.emit")
    wrap(SimulatorProbe, "_sample", "obs.probe")
    # transport: the packet handlers a flow registers with the simulator.
    wrap(TcpFlow, "_on_ack", "transport.on_ack")
    wrap(TcpFlow, "_on_data", "transport.on_data")
    wrap(TcpFlow, "_pacer_fire", "transport.pacer")
    # cc: every controller hook any registered controller defines.
    for cls in [CongestionController, *_subclasses(CongestionController)]:
        for hook in CC_HOOKS:
            if hook in cls.__dict__:
                wrap(cls, hook, "cc.hook")
    # routing
    wrap(RoutingEngine, "route_to_many", "routing.route_to_many")
    wrap(IncrementalRouter, "route_to_many", "routing.route_to_many")
    wrap(RoutingEngine, "path_and_distance_via", "routing.path")
    wrap(RoutingEngine, "paths_many", "routing.paths_many")
    # topology: the network build (a sweep worker's rebuild too) and
    # each snapshot.
    wrap(LeoNetwork, "__init__", "topology.build")
    wrap(LeoNetwork, "snapshot", "topology.snapshot")
    # sweep: the parent's scatter/gather and each worker's chunk.  A
    # worker's records start with its chunk (``_run_chunk``, the unit
    # the pool runs) and go back to the parent as a dump.
    wrap(sweep_pkg, "sweep_timelines", "sweep.sweep_timelines")
    wrap(sweep_engine, "compute_pair_chunk", "sweep.compute_chunk")
    original_run_chunk = sweep_engine._run_chunk

    @functools.wraps(original_run_chunk)
    def run_chunk(*args, **kwargs):
        if not timer.in_worker():
            return original_run_chunk(*args, **kwargs)
        timer.reset()
        result = original_run_chunk(*args, **kwargs)
        timer.dump_worker(counters(timer))
        return result

    sweep_engine._run_chunk = run_chunk
    timer._patches.append((sweep_engine, "_run_chunk", original_run_chunk))
    # fluid
    wrap(fluid_engine.FluidSimulation, "advance", "fluid.advance")
    wrap(fluid_engine, "waterfill", "fluid.waterfill")
    wrap(fluid_engine, "flow_link_matrix_from_paths", "fluid.matrix_build")
    # traffic
    wrap(WorkloadSpawner, "install", "traffic.spawner_install")
    wrap(FlowArrivalStream, "take_until", "traffic.arrivals")
    # service
    wrap(LiveSimulationService, "advance_to", "service.advance")
    wrap(LiveSimulationService, "save", "service.save")
    wrap(LiveSimulationService, "resume", "service.resume")
    wrap(LiveSimulationService, "attach_workload", "service.attach")
    wrap(LiveSimulationService, "inject_fault", "service.inject")
    wrap(ServiceServer, "_dispatch", "service.dispatch")
    # Holders of the program's own counters.
    for cls in (PacketSimulator, RingBufferTracer, TcpFlow,
                RoutingPerfCounters, IncrementalPerfCounters,
                WorkloadSpawner):
        timer.track(cls)
    return timer


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def counters(timer: LayerTimer) -> Dict[str, float]:
    """The program's own counters, summed over the tracked instances."""
    inst = timer.instances
    sims = inst.get("PacketSimulator", [])
    flows = inst.get("TcpFlow", [])
    routing = inst.get("RoutingPerfCounters", [])
    incremental = inst.get("IncrementalPerfCounters", [])
    spawners = inst.get("WorkloadSpawner", [])
    tracers = inst.get("RingBufferTracer", [])
    delivered = sum(sim.stats.packets_delivered for sim in sims)
    dropped = sum(sim.stats.packets_dropped for sim in sims)
    return {
        "simulation.events": float(sum(
            sim.scheduler.events_processed for sim in sims)),
        "simulation.peak_queue_len": float(max(
            (sim.scheduler.peak_queue_len for sim in sims), default=0)),
        "simulation.position_computes": float(sum(
            sim.positions.position_computes for sim in sims)),
        "simulation.packets_delivered": float(delivered),
        "simulation.packets_dropped": float(dropped),
        "obs.trace_emitted": float(sum(t.emitted for t in tracers)),
        "transport.retransmits": float(sum(
            f.retransmissions for f in flows)),
        "transport.timeouts": float(sum(f.timeouts for f in flows)),
        "transport.packets_acked": float(sum(f.snd_una for f in flows)),
        "transport.packets_sent": float(sum(
            f.snd_nxt + f.retransmissions for f in flows)),
        "routing.trees_computed": float(sum(
            c.trees_computed for c in routing)),
        "routing.dijkstra_calls": float(sum(
            c.dijkstra_calls for c in routing)),
        "routing.full_solves": float(sum(c.full_solves
                                         for c in incremental)),
        "routing.repairs": float(sum(c.repairs for c in incremental)),
        "traffic.flows_started": float(sum(s.started for s in spawners)),
        "traffic.flows_completed": float(sum(s.completed
                                             for s in spawners)),
    }
