"""``packet-fig2``: the paper's Fig. 2 protocol on the packet engine.

Kuiper K1 with the top-N cities, seeded random permutation matrices,
one long-running TCP NewReno flow per pair, uniform 10 Mbit/s line
rate.  Instrumented the way ``repro report`` does it: an enabled
:class:`~repro.obs.RingBufferTracer` and a 1 s
:class:`~repro.obs.SimulatorProbe`.

One operation is one check of one repetition: each flow's progress
check, and the drop-partition check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .calibrate import ScaledClock
from .common import Rep, Workload, draw_index
from .layers import LayerTimer
from .stats import Ops

__all__ = ["PacketFig2", "drop_partition_errors"]


@dataclass
class _State:
    sim: Any
    tracer: Any
    registry: Any
    flows: List[Any]


def drop_partition_errors(sim, tracer) -> List[str]:
    """Where the packet accounting fails to add up (empty when it does).

    * every packet a node forwarded is at a device: sent, dropped there
      (queue or fault), waiting in its queue, or being serialized;
    * device drop counters sum to the network-layer drop counters;
    * the tracer saw exactly one drop event per dropped packet and one
      delivery event per delivered packet.
    """
    stats = sim.stats
    sent = queue_drops = fault_drops = waiting = serializing = 0
    for device in sim.iter_devices():
        sent += device.stats.packets_sent
        queue_drops += device.stats.packets_dropped
        fault_drops += device.stats.packets_dropped_fault
        waiting += device.queue_length
        serializing += 1 if device.is_busy else 0
    errors = []
    at_devices = sent + queue_drops + fault_drops + waiting + serializing
    if stats.packets_forwarded != at_devices:
        errors.append(f"forwarded {stats.packets_forwarded} != "
                      f"at devices {at_devices}")
    if queue_drops != stats.packets_dropped_queue:
        errors.append(f"device queue drops {queue_drops} != "
                      f"{stats.packets_dropped_queue}")
    if fault_drops != stats.packets_dropped_fault:
        errors.append(f"device fault drops {fault_drops} != "
                      f"{stats.packets_dropped_fault}")
    from repro.obs.trace import PKT_DELIVER, PKT_DROP
    counts = tracer.counts
    if counts.get(PKT_DROP, 0) != stats.packets_dropped:
        errors.append(f"traced drops {counts.get(PKT_DROP, 0)} != "
                      f"{stats.packets_dropped}")
    if counts.get(PKT_DELIVER, 0) != stats.packets_delivered:
        errors.append(f"traced deliveries {counts.get(PKT_DELIVER, 0)} "
                      f"!= {stats.packets_delivered}")
    return errors


class PacketFig2(Workload):
    name = "packet-fig2"
    why = ("batch, 1 process: Fig. 2 packet run, K1 top-25 permutation, "
           "NewReno at 10 Mbit/s, tracer + 1 s probe; per-packet "
           "simulation and obs cost dominate")
    operation = ("one check per repetition: each flow made progress, and "
                 "the drop partition adds up")

    NUM_CITIES = 25
    #: Just past one probe interval, so the probe samples once.
    HORIZON_S = 1.25
    LINE_RATE_BPS = 10_000_000.0
    PROBE_INTERVAL_S = 1.0
    #: The horizon runs as this many ``sim.run`` calls, each timed
    #: between two reference-kernel runs (the scheduler partitions time
    #: exactly, so the outcome equals one call).
    CHUNKS = 10
    #: Independent permutation matrices a run cycles through; an
    #: untraced run plays each once (four 6-9 s repetitions on a 2-vCPU
    #: x86 VM), so each run weighs the draws alike.
    DRAWS = 4
    min_reps = DRAWS

    def describe(self) -> Dict[str, Any]:
        return {"shell": "K1", "cities": self.NUM_CITIES,
                "horizon_s": self.HORIZON_S,
                "line_rate_bps": self.LINE_RATE_BPS,
                "transport": "TcpNewRenoFlow, one per permutation pair",
                "tracer": "RingBufferTracer",
                "probe_interval_s": self.PROBE_INTERVAL_S}

    def __init__(self) -> None:
        self._runs = 0

    def inputs(self, seed: int) -> List[List[Tuple[int, int]]]:
        """``DRAWS`` permutation matrices from ``seed``; untraced
        repetition ``k`` plays matrix ``k % DRAWS``, so a run's median
        spans several, and a traced one replays the untraced one before
        it."""
        from repro import random_permutation_pairs
        return [random_permutation_pairs(self.NUM_CITIES,
                                         seed=seed * 1000 + draw)
                for draw in range(self.DRAWS)]

    def setup(self, inputs: List[List[Tuple[int, int]]],
              timer: Optional[LayerTimer]) -> _State:
        from repro import Hypatia
        from repro.obs import MetricsRegistry, RingBufferTracer
        from repro.simulation.simulator import LinkConfig
        from repro.transport.tcp import TcpNewRenoFlow
        hypatia = Hypatia.from_shell_name("K1", num_cities=self.NUM_CITIES)
        tracer = RingBufferTracer()
        rate = self.LINE_RATE_BPS
        sim = hypatia.build_packet_simulator(
            link_config=LinkConfig(isl_rate_bps=rate, gsl_rate_bps=rate),
            tracer=tracer)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry,
                         interval_s=self.PROBE_INTERVAL_S)
        pairs = inputs[draw_index(self._runs, timer) % len(inputs)]
        flows = [TcpNewRenoFlow(src, dst).install(sim) for src, dst in pairs]
        return _State(sim, tracer, registry, flows)

    def run(self, state: _State, inputs: Any, ops: Ops,
            timer: Optional[LayerTimer]) -> Rep:
        from repro.obs.trace import ROUTE_CHANGE
        if timer is None:
            self._runs += 1
        sim = state.sim
        clock = ScaledClock()
        for chunk in range(1, self.CHUNKS + 1):
            clock.time(sim.run, self.HORIZON_S * chunk / self.CHUNKS)
        stuck = [flow.flow_id for flow in state.flows
                 if flow.acked_payload_bytes <= 0]
        ops.tally("flow_progress", len(state.flows), len(stuck))
        errors = drop_partition_errors(sim, state.tracer)
        ops.check("drop_partition", not errors)
        for error in errors:
            print(f"check failed: {error}")
        acked = sum(flow.acked_payload_bytes for flow in state.flows)
        stats = sim.stats
        outputs = {
            "goodput_mbps": acked * 8.0 / self.HORIZON_S / 1e6,
            "flows_completed": 0.0,
            "flows_stuck": float(len(stuck)),
            "packets_delivered": float(stats.packets_delivered),
            "packets_dropped": float(stats.packets_dropped),
            "path_changes": float(state.tracer.counts.get(ROUTE_CHANGE, 0)),
            "events": float(sim.scheduler.events_processed),
        }
        rep = Rep(sim_s=self.HORIZON_S, wall_s=clock.wall_s,
                  scaled_s=clock.scaled_s, outputs=outputs)
        if timer is not None:
            rep.attributed_s = sum(timer.layer_self_s().values())
        return rep
