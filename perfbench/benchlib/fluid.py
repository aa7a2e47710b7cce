"""``fluid-churn``: the §5.4 max-min timeline with flow churn.

Starlink S1 with the top-100 cities, a gravity demand matrix of
1 Gbit/s aggregate, seeded Poisson arrivals of finite flows with
exponential sizes of 1 MB mean, the max-min
:class:`~repro.fluid.engine.FluidSimulation` at 1 s snapshots over 10 s.
That is ~1.3k arrivals with several hundred flows active at once, the
regime where every arrival and completion re-solves the whole active
set (waterfill dominates; cost grows about quadratically with load).

One operation is one check of one repetition: each flow's delivered
volume, and each snapshot's device loads against capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from .calibrate import ScaledClock
from .common import Rep, Workload, draw_index
from .layers import LayerTimer
from .stats import Ops

__all__ = ["FluidChurn", "fluid_check_errors"]

#: Completed flows may differ from their offered volume by this many
#: bits: the engine retires a flow once its residual is below 1e-3 bit.
DELIVERED_TOLERANCE_BITS = 1e-3
#: Relative slack on device capacity (float summation of flow rates).
CAPACITY_SLACK = 1e-9


@dataclass
class _State:
    fluid: Any
    run: Any
    #: The arrival schedule this repetition plays.
    schedule: Any


def fluid_check_errors(result, capacity_bps: float) -> Dict[str, int]:
    """Failed checks of a finished dynamic fluid run, by kind.

    * ``flow_volume``: a completed flow delivered other than its offered
      bits, or an unfinished one delivered a negative amount or all of
      them;
    * ``snapshot_capacity``: some device load at a recorded snapshot
      exceeds the device capacity.
    """
    offered = result.flow_offered_bits
    delivered = result.flow_delivered_bits
    done = np.isfinite(result.flow_fct_s)
    tolerance = DELIVERED_TOLERANCE_BITS + 1e-12 * offered
    bad_done = done & (np.abs(delivered - offered) > tolerance)
    bad_open = ~done & ((delivered < 0.0) | (delivered >= offered))
    over = 0
    limit = capacity_bps * (1.0 + CAPACITY_SLACK)
    for loads in result.device_load_bps:
        if loads and max(loads.values()) > limit:
            over += 1
    return {"flow_volume": int(bad_done.sum() + bad_open.sum()),
            "snapshot_capacity": over}


def path_changes(flow_paths) -> int:
    """Flows whose path differs between consecutive snapshots, summed."""
    changes = 0
    for before, after in zip(flow_paths, flow_paths[1:]):
        changes += sum(1 for old, new in zip(before, after)
                       if old is not None and new is not None
                       and old != new)
    return changes


class FluidChurn(Workload):
    name = "fluid-churn"
    why = ("batch, 1 process: Sec. 5.4 max-min timeline, S1 100-city "
           "gravity Poisson churn (~1.3k arrivals in 10 s); waterfill "
           "re-solves dominate")
    operation = ("one check per repetition: each flow delivered exactly "
                 "its offered bits (or less if unfinished), and each "
                 "snapshot's device loads stay within capacity")

    NUM_CITIES = 100
    OFFERED_BPS = 1e9
    MEAN_FLOW_BYTES = 1e6
    HORIZON_S = 10.0
    STEP_S = 1.0
    CAPACITY_BPS = 10_000_000.0
    #: Independent arrival draws a run cycles through: the waterfill
    #: cost grows about quadratically with the draw's arrivals and
    #: sizes, so one draw alone would set a run's figure.  An untraced
    #: run plays each once, so each run weighs the draws alike.
    DRAWS = 3
    min_reps = DRAWS

    def __init__(self) -> None:
        self._runs = 0

    def describe(self) -> Dict[str, Any]:
        return {"shell": "S1", "cities": self.NUM_CITIES,
                "matrix": "gravity", "offered_bps": self.OFFERED_BPS,
                "sizes": "exponential",
                "mean_flow_bytes": self.MEAN_FLOW_BYTES,
                "horizon_s": self.HORIZON_S, "step_s": self.STEP_S,
                "capacity_bps": self.CAPACITY_BPS, "engine": "maxmin"}

    def inputs(self, seed: int):
        """``DRAWS`` arrival schedules from ``seed``; untraced repetition
        ``k`` plays schedule ``k % DRAWS``, and a traced one replays the
        untraced one before it."""
        from repro.traffic import FlowArrivalProcess, TrafficMatrix
        matrix = TrafficMatrix.gravity(count=self.NUM_CITIES,
                                       total_offered_bps=self.OFFERED_BPS)
        return [FlowArrivalProcess(
                    matrix, mean_size_bytes=self.MEAN_FLOW_BYTES,
                    size_distribution="exponential",
                    seed=seed * 1000 + draw).generate(self.HORIZON_S)
                for draw in range(self.DRAWS)]

    def setup(self, inputs, timer: Optional[LayerTimer]) -> _State:
        from repro import Hypatia
        schedule = inputs[draw_index(self._runs, timer) % len(inputs)]
        hypatia = Hypatia.from_shell_name("S1", num_cities=self.NUM_CITIES)
        fluid = hypatia.build_fluid_simulation(
            mode="maxmin", workload=schedule,
            link_capacity_bps=self.CAPACITY_BPS)
        return _State(fluid, fluid.start_run(self.HORIZON_S,
                                             step_s=self.STEP_S), schedule)

    def run(self, state: _State, inputs, ops: Ops,
            timer: Optional[LayerTimer]) -> Rep:
        if timer is None:
            self._runs += 1
        clock = ScaledClock()
        while not state.run.done:
            clock.time(state.fluid.advance, state.run, max_steps=1)
        result = state.fluid.finish(state.run)
        failures = fluid_check_errors(result, self.CAPACITY_BPS)
        ops.tally("flow_volume", len(result.flow_offered_bits),
                  failures["flow_volume"])
        ops.tally("snapshot_capacity", len(result.device_load_bps),
                  failures["snapshot_capacity"])
        fct = result.fct_values()
        arrivals = len(state.schedule)
        outputs = {
            "arrivals": float(arrivals),
            "goodput_mbps": float(result.flow_delivered_bits.sum())
            / self.HORIZON_S / 1e6,
            "flows_completed": float(fct.size),
            "fct_p50_s": float(np.median(fct)) if fct.size else 0.0,
            "allocations_solved": float(state.run.solves),
            "path_changes": float(path_changes(result.flow_paths)),
            "peak_utilization": max(
                (max(loads.values()) for loads in result.device_load_bps
                 if loads), default=0.0) / self.CAPACITY_BPS,
        }
        rep = Rep(sim_s=self.HORIZON_S, wall_s=clock.wall_s,
                  scaled_s=clock.scaled_s, outputs=outputs)
        if timer is not None:
            rep.attributed_s = sum(timer.layer_self_s().values())
            rep.layer["fluid.solves_per_arrival"] = (
                state.run.solves / arrivals if arrivals else 0.0)
        return rep
