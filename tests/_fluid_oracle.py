"""Test-only oracle for the max-min fluid engine's snapshot step.

:class:`ReferenceFluidSimulation` is :class:`FluidSimulation` with its
one production step (flat incidence matrix + ``waterfill``) replaced by
the original pure-Python stepper: per-flow device lists, a link dict,
and one :func:`~repro.fluid.maxmin.max_min_fair_allocation` solve per
sub-event interval.  Everything else — path computation, run state,
result packaging — is inherited, so any difference between the two
engines is a difference in the step.  The parity tests
(``tests/test_fluid.py``, ``benchmarks/test_fluid_scale.py``) require
bit-identical rates, loads, delivered bits, FCTs and solve counts.

Do not optimize this file: its value is being the plain version.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.fluid.engine import (_RESIDUAL_EPS_BITS, _TIME_EPS_S,
                                FluidSimulation, path_devices)
from repro.fluid.maxmin import max_min_fair_allocation

__all__ = ["ReferenceFluidSimulation"]


class ReferenceFluidSimulation(FluidSimulation):
    """:class:`FluidSimulation` stepping through the pure-Python oracle."""

    def _step(self, t_index: int, time_s: float, step_end: float,
              paths: List[Optional[Tuple[int, ...]]],
              candidates: np.ndarray, starts: np.ndarray,
              demand_caps: np.ndarray, residual_bits: np.ndarray,
              delivered_bits: np.ndarray, fct_s: np.ndarray,
              rates: np.ndarray, all_paths: list, all_loads: list,
              dynamic: bool, faults) -> int:
        """One snapshot step through the pure-Python oracle allocator."""
        flow_links: Dict[int, List[Hashable]] = {
            i: path_devices(paths[i], self._num_sats)
            for i in candidates if paths[i] is not None}
        capacities: Dict[Hashable, float] = {}
        for links in flow_links.values():
            for link in links:
                capacity = self.capacity_overrides.get(
                    link, self.link_capacity_bps)
                if faults is not None:
                    # Cut/outaged devices are zero-capacity (flows
                    # over them — frozen-topology mode — get rate 0);
                    # lossy ones shrink to the expected goodput.
                    capacity *= faults.capacity_factor(
                        link, self._num_sats, time_s)
                capacities[link] = capacity

        # Sub-event loop: [time_s, step_end) split at every arrival
        # and predicted completion; one max-min solve per interval.
        solves = 0
        tau = time_s
        recorded = False
        while True:
            active = [i for i in candidates
                      if starts[i] <= tau + _TIME_EPS_S
                      and residual_bits[i] > 0.0
                      and i in flow_links]
            links_list = [flow_links[i] for i in active]
            allocated = max_min_fair_allocation(
                capacities, links_list, demands=demand_caps[active])
            solves += 1
            if not recorded:
                loads: Dict[Hashable, float] = {}
                for links, rate in zip(links_list, allocated):
                    for link in links:
                        loads[link] = loads.get(link, 0.0) + rate
                for local_index, i in enumerate(active):
                    rates[t_index, i] = allocated[local_index]
                all_paths.append(list(paths))
                all_loads.append(loads)
                self._record_metrics(
                    time_s, rates[t_index], loads,
                    active_count=len(active) if dynamic else None)
                recorded = True
            next_tau = step_end
            for i in candidates:
                if tau + _TIME_EPS_S < starts[i] < next_tau:
                    next_tau = starts[i]
            for local_index, i in enumerate(active):
                rate = allocated[local_index]
                if rate > 0.0 and np.isfinite(residual_bits[i]):
                    done = tau + max(residual_bits[i] / rate,
                                     _TIME_EPS_S)
                    if done < next_tau:
                        next_tau = done
            dt = next_tau - tau
            if dt > 0.0:
                for local_index, i in enumerate(active):
                    rate = allocated[local_index]
                    if rate <= 0.0:
                        continue
                    served = min(rate * dt, residual_bits[i])
                    delivered_bits[i] += served
                    if np.isfinite(residual_bits[i]):
                        residual_bits[i] -= served
                        if residual_bits[i] <= _RESIDUAL_EPS_BITS:
                            residual_bits[i] = 0.0
                            fct_s[i] = next_tau - starts[i]
            tau = next_tau
            if tau >= step_end - _TIME_EPS_S:
                break
        return solves
