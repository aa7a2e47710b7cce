"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with::

    python3 -m pytest perfbench -q

They import no simulator code except where a check function is tested
on a real run (marked by the ``repro`` import inside the test).
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchlib.fluid import fluid_check_errors  # noqa: E402
from benchlib.layers import LayerTimer, overlap_s  # noqa: E402
from benchlib.metrics import (END_TO_END, MOVES, WORKLOADS,  # noqa: E402
                              per_layer_names)
from benchlib.stats import (OpenLoop, Ops, latency_summary,  # noqa: E402
                            nearest_rank)
from benchlib.sweep import rtt_bound_violations  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

def test_nearest_rank_returns_an_observed_sample():
    samples = list(range(1, 11))  # 1..10
    assert nearest_rank(samples, 50) == 5
    assert nearest_rank(samples, 90) == 9
    assert nearest_rank(samples, 91) == 10
    assert nearest_rank(samples, 100) == 10
    assert nearest_rank(samples, 1) == 1
    assert nearest_rank([7.5], 99) == 7.5


def test_nearest_rank_is_order_free_and_puts_failures_last():
    samples = [3.0, math.inf, 1.0, 2.0]
    assert nearest_rank(samples, 50) == 2.0
    assert nearest_rank(samples, 75) == 3.0
    assert nearest_rank(samples, 76) == math.inf


def test_nearest_rank_rejects_empty_and_bad_percent():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    for bad in (0.0, -1.0, 100.5):
        with pytest.raises(ValueError):
            nearest_rank([1.0], bad)


def test_latency_summary_counts_the_tail_beyond_p99():
    samples = [float(i) for i in range(1000)]
    summary = latency_summary(samples)
    assert summary["count"] == 1000
    assert summary["p50"] == 499.0          # rank 500
    assert summary["p99"] == 989.0          # rank 990
    assert summary["beyond_p99"] == 10      # enough tail to report p99
    small = latency_summary([1.0] * 100)
    assert small["beyond_p99"] == 1


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------

def test_open_loop_times_requests_from_their_due_time():
    loop = OpenLoop(start_s=100.0, rate_hz=10.0)
    assert loop.due(0) == 100.0
    assert loop.due(3) == pytest.approx(100.3)
    loop.sent(100.0)            # on time
    loop.sent(100.25)           # due 100.1: 150 ms late
    loop.answered(100.05)       # 50 ms after due
    loop.answered(100.30)       # 200 ms after due, of which 150 ms late
    assert loop.lateness_s == pytest.approx([0.0, 0.15])
    assert loop.latency_s == pytest.approx([0.05, 0.2])
    assert nearest_rank(loop.latency_s, 50) == pytest.approx(0.05)
    assert nearest_rank(loop.latency_s, 99) == pytest.approx(0.2)


def test_a_paused_generator_shifts_the_schedule():
    loop = OpenLoop(start_s=0.0, rate_hz=10.0)
    loop.sent(0.0)
    loop.shift(1.0)                 # paused for a second after request 0
    assert loop.due(1) == pytest.approx(1.1)
    loop.sent(1.1)
    assert loop.lateness_s == [0.0, 0.0]
    assert loop.due_s == pytest.approx([0.0, 1.1])


def test_a_stall_delays_every_request_due_during_it():
    # Ten requests due every 10 ms; the server stalls until t=0.1 and
    # then answers all at once.  Each waited from its own due time.
    loop = OpenLoop(start_s=0.0, rate_hz=100.0)
    for index in range(10):
        loop.sent(loop.due(index))
    for _ in range(10):
        loop.answered(0.1)
    expected = [0.1 - index * 0.01 for index in range(10)]
    assert loop.latency_s == pytest.approx(expected)
    assert nearest_rank(loop.latency_s, 99) == pytest.approx(0.1)


def test_refused_and_reset_requests_miss_every_latency_limit():
    loop = OpenLoop(start_s=0.0, rate_hz=1.0)
    for index in range(4):
        loop.sent(loop.due(index))
    loop.answered(0.01)             # ok
    loop.answered(1.01, ok=False)   # refused: {"ok": false}
    assert loop.close() == 2        # connection reset with two in flight
    assert loop.failures == 3
    assert loop.latency_s[0] == pytest.approx(0.01)
    assert all(math.isinf(x) for x in loop.latency_s[1:])
    assert math.isinf(nearest_rank(loop.latency_s, 50))
    with pytest.raises(ValueError):
        loop.answered(5.0)          # nothing outstanding


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------

def test_ops_counts_failures_against_attempts():
    ops = Ops()
    assert ops.error_rate == 0.0
    assert ops.check("status", True)
    assert not ops.check("status", False)
    ops.tally("rtt_sample", 100, 3)
    assert ops.total_attempted == 102
    assert ops.total_failed == 4
    assert ops.error_rate == pytest.approx(4 / 102)
    assert ops.as_dict()["status"] == {"attempted": 2, "failed": 1}
    with pytest.raises(ValueError):
        ops.tally("x", 1, 2)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def test_fluid_checks_flag_wrong_volumes_and_overloads():
    result = SimpleNamespace(
        flow_offered_bits=np.array([8e6, 8e6, 8e6, 8e6]),
        flow_delivered_bits=np.array([8e6, 8e6 - 1.0, 5e6, 8e6]),
        flow_fct_s=np.array([0.5, 0.7, np.nan, np.nan]),
        device_load_bps=[{("gsl", 1): 10e6}, {("gsl", 1): 10.1e6}, {}])
    failures = fluid_check_errors(result, capacity_bps=10e6)
    # flow 1 completed a bit short; flow 3 never completed yet delivered
    # everything; snapshot 1 is over capacity.
    assert failures == {"flow_volume": 2, "snapshot_capacity": 1}


def test_rtt_below_geodesic_bound_is_a_failure():
    timeline = SimpleNamespace(rtts_s=np.array([0.05, np.inf, 0.03, 0.04]))
    assert rtt_bound_violations(timeline, 0.04) == (3, 1)


def test_drop_partition_adds_up_on_a_real_run():
    from benchlib.packet import drop_partition_errors
    from repro import Hypatia
    from repro.obs import RingBufferTracer
    from repro.simulation.simulator import LinkConfig
    from repro.transport.tcp import TcpNewRenoFlow
    hypatia = Hypatia.from_shell_name("K1", num_cities=4)
    tracer = RingBufferTracer()
    sim = hypatia.build_packet_simulator(
        link_config=LinkConfig(isl_rate_bps=1e6, gsl_rate_bps=1e6,
                               gsl_queue_packets=5),
        tracer=tracer)
    TcpNewRenoFlow(0, 1).install(sim)
    TcpNewRenoFlow(2, 1).install(sim)
    sim.run(0.5)
    assert sim.stats.packets_dropped_queue > 0
    assert drop_partition_errors(sim, tracer) == []
    sim.stats.packets_dropped_queue += 1
    assert drop_partition_errors(sim, tracer)


# ----------------------------------------------------------------------
# Layer timer
# ----------------------------------------------------------------------

class _Toy:
    def outer(self, clock):
        clock.append("outer")
        return self.inner(clock) + 1

    def inner(self, clock):
        clock.append("inner")
        return 1

    def again(self, depth):
        return self.again(depth - 1) if depth else 0

    @classmethod
    def make(cls):
        return cls()


def test_layer_timer_separates_self_time_and_restores(tmp_path):
    originals = dict(_Toy.__dict__)
    timer = LayerTimer(str(tmp_path))
    timer.wrap(_Toy, "outer", "fluid.outer")
    timer.wrap(_Toy, "inner", "routing.inner")
    timer.wrap(_Toy, "again", "fluid.again")
    timer.wrap(_Toy, "make", "fluid.make")
    timer.track(_Toy)
    toy = _Toy.make()
    assert toy.outer([]) == 2
    assert toy.again(3) == 0
    assert timer.calls("fluid.outer") == 1
    assert timer.calls("routing.inner") == 1
    assert timer.calls("fluid.again") == 1       # re-entry passes through
    assert timer.calls("fluid.make") == 1
    assert timer.instances["_Toy"] == [toy]
    outer, inner = timer.stats["fluid.outer"], timer.stats["routing.inner"]
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    selfs = timer.layer_self_s()
    assert selfs["routing"] == pytest.approx(inner[2])
    timer.uninstall()
    for name in ("outer", "inner", "again", "make", "__init__"):
        assert _Toy.__dict__.get(name) is originals.get(name)


def test_layer_timer_merges_worker_dumps(tmp_path):
    timer = LayerTimer(str(tmp_path))
    timer.stats["routing.x"] = [2, 1.0, 0.5]
    timer.dump_worker({"routing.repairs": 3.0})
    dumps = timer.collect_dumps()
    assert len(dumps) == 1 and not list(tmp_path.iterdir())
    timer.absorb(dumps[0]["stats"])
    assert timer.stats["routing.x"] == [4, 2.0, 1.0]
    assert dumps[0]["counters"] == {"routing.repairs": 3.0}


def test_layer_timer_keeps_top_level_intervals(tmp_path):
    timer = LayerTimer(str(tmp_path))
    timer.wrap(_Toy, "outer", "fluid.outer")
    timer.wrap(_Toy, "inner", "routing.inner")
    try:
        toy = _Toy()
        toy.outer([])
        toy.inner([])
    finally:
        timer.uninstall()
    # outer (with inner nested in it), then inner on its own.
    assert len(timer.top_level) == 2
    (start0, end0), (start1, end1) = timer.top_level
    assert start0 <= end0 <= start1 <= end1
    named = sum(self_s for _, _, self_s in timer.stats.values())
    assert (end0 - start0) + (end1 - start1) == pytest.approx(named)
    timer.reset()
    assert timer.top_level == []


def test_overlap_counts_only_time_inside_the_windows():
    calls = [(0.0, 1.0), (2.0, 4.0), (5.0, 6.0)]
    assert overlap_s(calls, [(0.5, 3.0)]) == pytest.approx(1.5)
    assert overlap_s(calls, [(0.0, 1.0), (3.5, 5.5)]) == pytest.approx(2.0)
    assert overlap_s(calls, [(6.0, 7.0)]) == 0.0
    assert overlap_s([], [(0.0, 1.0)]) == 0.0


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the runner
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == per_layer_names()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    from benchlib.fluid import FluidChurn
    from benchlib.packet import PacketFig2
    from benchlib.service import ServiceLive
    from benchlib.sweep import SweepPaths
    whys = {w["name"]: w["why"] for w in doc["workloads"]}
    for cls in (PacketFig2, FluidChurn, SweepPaths, ServiceLive):
        assert whys[cls.name] == cls.why
    for moves, where in MOVES.values():
        assert moves and set(where) <= set(WORKLOADS)
