"""``service-live``: the live service behind its JSON-line server.

The server (``perfbench/server.py``) runs in its own process: the packet
engine on Kuiper K1 with the top-N cities, every flow on the BBR
controller, no tracer.  This process is its one client and opens two
connections:

* **A, closed loop.**  Per epoch: attach the epoch's seeded gravity
  arrivals (``attach_workload``, the payload sized by the traffic
  alone: the congestion-control lab's heavy churn on these cities),
  inject the epoch's seeded fault events (``inject_fault``),
  advance one epoch, and every ``CHECKPOINT_EVERY`` epochs checkpoint
  and read the status the checkpoint holds.
* **B, open loop.**  ``status`` at ``STATUS_RATE_HZ``, pipelined: each
  is sent when due whether or not earlier ones were answered, and timed
  from its due time (see :class:`~benchlib.stats.OpenLoop`).

The server dispatches commands synchronously, so B's requests wait
behind A's advances and checkpoints; that wait is what the status
latency tail measures.  After ``stop`` the last checkpoint is resumed
in this process with :meth:`LiveSimulationService.resume`.

One operation is one command on either connection, plus the final-clock
and restored-status checks.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cc import lab

from .calibrate import ScaledClock
from .common import Rep, Workload, draw_index
from .layers import LayerTimer, overlap_s
from .packet import PacketFig2
from .stats import OpenLoop, Ops, latency_summary, nearest_rank

__all__ = ["ServiceLive", "ServiceInputs"]

HOST = "127.0.0.1"
#: Reader buffer of the client's connections (responses are small; the
#: server keeps asyncio's default).
CLIENT_READ_LIMIT = 1 << 24
#: Seconds allowed for the server to print its ready line, and to exit.
SERVER_START_TIMEOUT_S = 120.0
SERVER_EXIT_TIMEOUT_S = 60.0


@dataclass
class ServiceInputs:
    """The generated command payloads of one run."""

    #: Per epoch: the ``WorkloadSchedule.as_dict()`` to attach, or None.
    arrivals: List[Optional[Dict[str, Any]]]
    #: Per epoch: the ``FaultEvent.as_dict()`` records to inject.
    faults: List[List[Dict[str, Any]]]


@dataclass
class _Server:
    process: subprocess.Popen
    port: int
    trace_dir: Optional[str]
    closed: bool = False


class ServiceLive(Workload):
    name = "service-live"
    why = ("closed loop A (attach cc-lab heavy churn by gravity on 25 "
           "cities, ~70 flows/epoch; inject, advance, checkpoint) + open "
           "loop B (status at 200/s); 1 client, 2 connections; BBR")
    loop = "closed (connection A) + open (connection B)"
    operation = ("one command on either connection (status, attach, "
                 "inject, advance, checkpoint, stop), plus the "
                 "final-clock and restored-status checks")
    #: Every repetition already starts a server; set-ups timed on their
    #: own would only lengthen the run.
    setup_only = 0
    multiprocess = True

    SHELL = "K1"
    #: The cities of ``packet-fig2``, so both workloads run one network.
    NUM_CITIES = PacketFig2.NUM_CITIES
    #: Four 1 s epochs, so flows started in the first are still
    #: running and finishing in the last.  One repetition takes ~7 s
    #: on a 2-vCPU x86 VM (~9 s with its server start and the resume),
    #: so an untraced run plays each of its three draws once.
    HORIZON_EPOCHS = 4
    EPOCH_S = 1.0
    #: Two checkpoints per repetition: one with the run half done, and
    #: the one at the horizon that is resumed and compared.
    CHECKPOINT_EVERY = 2
    #: The traffic :mod:`repro.cc.lab` races controllers on, its heavy
    #: churn: 900 kbit/s offered per ground station and 40 KB mean
    #: flows (the lab's permutation matrix has one pair per station;
    #: here the same per-station load is spread by gravity).  That is
    #: ~70 arrivals, one attach of ~5.5 KiB, per epoch.
    OFFERED_BPS = lab.CHURN_RATE_BPS["heavy"] * NUM_CITIES
    MEAN_FLOW_BYTES = lab.MEAN_FLOW_BYTES
    STATUS_RATE_HZ = 200.0
    MIN_STATUS_SAMPLES = 1000
    #: Independent traffic/fault draws a run cycles through.
    DRAWS = 3
    #: An untraced run plays every draw, so its median sets one slow
    #: repetition aside and each run weighs the draws alike.
    min_reps = DRAWS
    CONTROLLER = "bbr"
    #: Per-epoch faults: one ISL cut and one lossy ISL.  Single links
    #: exercise the topology and packet-loss fault paths while routing
    #: around them, so no draw strands a city's traffic for an epoch.
    LOSS_RATE = 0.01

    def __init__(self, root: str, scratch: str) -> None:
        self.root = root
        self.scratch = scratch
        self._server_rss_mb: List[float] = []
        self._runs = 0

    def describe(self) -> Dict[str, Any]:
        return {"shell": self.SHELL, "cities": self.NUM_CITIES,
                "engine": "packet", "controller": self.CONTROLLER,
                "horizon_epochs": self.HORIZON_EPOCHS,
                "epoch_s": self.EPOCH_S,
                "checkpoint_every": self.CHECKPOINT_EVERY,
                "offered_bps": self.OFFERED_BPS,
                "traffic_from": "repro.cc.lab heavy churn, per station",
                "mean_flow_bytes": self.MEAN_FLOW_BYTES,
                "status_rate_hz": self.STATUS_RATE_HZ,
                "connections": 2, "client_processes": 1,
                "faults_per_epoch": "1 ISL cut + 1 ISL with packet "
                                    f"loss at {self.LOSS_RATE}"}

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def inputs(self, seed: int) -> List[ServiceInputs]:
        """``DRAWS`` independent traffic and fault draws from ``seed``;
        untraced repetition ``k`` plays draw ``k % DRAWS``, so a run's
        median spans several, and a traced one replays the untraced one
        before it."""
        from repro import Hypatia
        isl_pairs = [tuple(int(node) for node in pair) for pair in
                     Hypatia.from_shell_name(
                         self.SHELL,
                         num_cities=self.NUM_CITIES).network.isl_pairs]
        return [self._draw(seed * 1000 + draw, isl_pairs)
                for draw in range(self.DRAWS)]

    def _draw(self, seed: int,
              isl_pairs: List[Tuple[int, int]]) -> ServiceInputs:
        from repro import FaultEvent, WorkloadSchedule
        from repro.traffic import FlowArrivalProcess, TrafficMatrix
        matrix = TrafficMatrix.gravity(count=self.NUM_CITIES,
                                       total_offered_bps=self.OFFERED_BPS)
        stream = FlowArrivalProcess(
            matrix, mean_size_bytes=self.MEAN_FLOW_BYTES, seed=seed).stream()
        arrivals: List[Optional[Dict[str, Any]]] = []
        faults: List[List[Dict[str, Any]]] = []
        for epoch in range(self.HORIZON_EPOCHS):
            start, end = epoch * self.EPOCH_S, (epoch + 1) * self.EPOCH_S
            requests = stream.take_until(end)
            arrivals.append(WorkloadSchedule(requests, seed=seed).as_dict()
                            if requests else None)
            rng = random.Random(f"{seed}:faults:{epoch}")
            faults.append([
                FaultEvent.isl_cut(*rng.choice(isl_pairs), start,
                                   end).as_dict(),
                FaultEvent.packet_loss(start, end, self.LOSS_RATE,
                                       isl=rng.choice(isl_pairs)).as_dict(),
            ])
        return ServiceInputs(arrivals, faults)

    # ------------------------------------------------------------------
    # Server process
    # ------------------------------------------------------------------

    def setup(self, inputs: List[ServiceInputs],
              timer: Optional[LayerTimer]) -> _Server:
        command = [sys.executable,
                   os.path.join(self.root, "perfbench", "server.py")]
        trace_dir = None
        if timer is not None:
            trace_dir = os.path.join(self.scratch, "server-trace")
            shutil.rmtree(trace_dir, ignore_errors=True)
            command += ["--trace-dir", trace_dir]
        process = subprocess.Popen(command, cwd=self.root,
                                   stdout=subprocess.PIPE, text=True)
        server = _Server(process, 0, trace_dir)
        try:
            line = _read_line(process, SERVER_START_TIMEOUT_S)
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            server.port = int(line.split()[1])
        except BaseException:
            _kill(process)
            raise
        return server

    def close(self, server: _Server) -> None:
        """Stop the server if still running; record its peak memory."""
        if server.closed:
            return
        server.closed = True
        process = server.process
        if process.poll() is None:
            try:
                _command_once(server.port, {"cmd": "stop"})
            except OSError:
                pass
        try:
            out, _ = process.communicate(timeout=SERVER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill(process)
            out = ""
        for line in (out or "").splitlines():
            if line.startswith("RSS_KB "):
                self._server_rss_mb.append(int(line.split()[1]) / 1024.0)

    def enough(self, reps: List[Rep]) -> bool:
        """At least ``MIN_STATUS_SAMPLES`` status latencies, so p99 has
        ten samples beyond it."""
        return sum(rep.extra["status"].num_sent
                   for rep in reps) >= self.MIN_STATUS_SAMPLES

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set, over every start."""
        return max(self._server_rss_mb, default=0.0)

    # ------------------------------------------------------------------
    # One repetition
    # ------------------------------------------------------------------

    def run(self, server: _Server, inputs: List[ServiceInputs], ops: Ops,
            timer: Optional[LayerTimer]) -> Rep:
        from repro.service import LiveSimulationService
        draw = inputs[draw_index(self._runs, timer) % len(inputs)]
        if timer is None:
            self._runs += 1
        ckpt_dir = os.path.join(self.scratch, "checkpoints")
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        os.makedirs(ckpt_dir)
        try:
            client = asyncio.run(self._drive(server.port, draw, ops,
                                             ckpt_dir))
            self.close(server)
            ops.check("server_exit", server.process.returncode == 0)
            horizon = self.HORIZON_EPOCHS * self.EPOCH_S
            final = client["final_status"] or {}
            ops.check("final_clock", final.get("time_s") == horizon
                      and final.get("done") is True)
            restored_ok = False
            load_s = math.inf
            outputs: Dict[str, float] = {}
            path = client["checkpoint_path"]
            if path is not None and os.path.exists(path):
                start = time.perf_counter()
                service = LiveSimulationService.resume(path)
                load_s = time.perf_counter() - start
                restored = json.loads(json.dumps(service.status()))
                restored_ok = restored == client["saved_status"]
                outputs = _service_outputs(service, horizon)
                client["checkpoint_mb"] = os.path.getsize(path) / 2**20
                del service
            ops.check("restored_status", restored_ok)
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        rep = Rep(sim_s=client["sim_s"], wall_s=client["loop_wall_s"],
                  scaled_s=client["loop_scaled_s"], outputs=outputs)
        rep.extra = {
            "status": client["status"],
            "attach_s": client["attach_s"],
            "attach_bytes": client["attach_bytes"],
            "checkpoint_save_s": client["save_s"],
            "checkpoint_load_s": [load_s],
        }
        if timer is not None:
            # The server's named time inside the client's loop windows
            # (the wall ``slowdown`` counts), not in B's drain pauses
            # or the final stop.
            server_named = 0.0
            for dump in _collect(server.trace_dir):
                timer.absorb(dump["stats"])
                server_named += overlap_s(dump["top_level"],
                                          client["loop_windows"])
                for name, value in dump["counters"].items():
                    rep.layer[name] = rep.layer.get(name, 0.0) + value
            rep.attributed_s = server_named
            rep.layer["service.checkpoint_mb"] = client.get("checkpoint_mb",
                                                            0.0)
        return rep

    async def _drive(self, port: int, inputs: ServiceInputs, ops: Ops,
                     ckpt_dir: str) -> Dict[str, Any]:
        clock = time.perf_counter
        try:
            reader_a, writer_a = await asyncio.open_connection(
                HOST, port, limit=CLIENT_READ_LIMIT)
            reader_b, writer_b = await asyncio.open_connection(
                HOST, port, limit=CLIENT_READ_LIMIT)
        except OSError:
            ops.check("connect", False)
            return {"status": OpenLoop(clock(), self.STATUS_RATE_HZ),
                    "attach_s": [], "attach_bytes": [], "loop_windows": [],
                    "save_s": [], "saved_status": None,
                    "final_status": None, "checkpoint_path": None,
                    "loop_wall_s": 0.0, "loop_scaled_s": 0.0, "sim_s": 0.0}
        scaled = ScaledClock(all_cpus=True)
        status = OpenLoop(clock(), self.STATUS_RATE_HZ)
        finished = asyncio.Event()
        running = asyncio.Event()
        running.set()
        sender = asyncio.create_task(
            _send_status(writer_b, status, finished, running))
        receiver = asyncio.create_task(
            _receive_status(reader_b, status, finished))
        broken = False

        async def call(kind: str, command: Dict[str, Any]
                       ) -> Tuple[Optional[Dict[str, Any]], float]:
            """One closed-loop command: its response and latency (inf if
            refused or the connection broke)."""
            nonlocal broken
            response = None
            start = clock()
            if not broken:
                try:
                    writer_a.write(json.dumps(command).encode() + b"\n")
                    await writer_a.drain()
                    line = await reader_a.readline()
                    response = json.loads(line) if line else None
                except (OSError, ValueError):
                    response = None
                if response is None:
                    broken = True
            ok = response is not None and response.get("ok") is True
            ops.check(kind, ok)
            return (response if ok else None), (clock() - start if ok
                                                else math.inf)

        attach_s: List[float] = []
        attach_bytes: List[int] = []
        windows: List[Tuple[float, float]] = []
        save_s: List[float] = []
        saved_status = final_status = checkpoint_path = None
        epochs = 0
        for epoch in range(self.HORIZON_EPOCHS):
            epoch_start = clock()
            if inputs.arrivals[epoch] is not None:
                command = {"cmd": "attach_workload",
                           "workload": inputs.arrivals[epoch]}
                attach_bytes.append(len(json.dumps(command)) + 1)
                _, latency = await call("attach", command)
                attach_s.append(latency)
            await call("inject", {"cmd": "inject_fault",
                                  "events": inputs.faults[epoch]})
            response, _ = await call("advance", {"cmd": "advance",
                                                 "epochs": 1})
            if response is not None:
                final_status = response["status"]
                epochs += 1
            if (epoch + 1) % self.CHECKPOINT_EVERY == 0:
                path = os.path.join(ckpt_dir, f"epoch-{epoch + 1}.ckpt")
                response, latency = await call("checkpoint", {
                    "cmd": "checkpoint", "path": path})
                save_s.append(latency)
                if response is not None:
                    response, _ = await call("status", {"cmd": "status"})
                    if response is not None:
                        saved_status = response["status"]
                        checkpoint_path = path
            elapsed = clock() - epoch_start
            windows.append((epoch_start, epoch_start + elapsed))
            # Pause B, let its requests drain from the idle server, and
            # run the reference kernel while nothing is in flight.
            pause_start = clock()
            running.clear()
            while status.outstanding and clock() - pause_start < 10.0:
                await asyncio.sleep(0.001)
            scaled.add(elapsed)
            status.shift(clock() - pause_start)
            running.set()

        finished.set()
        await sender
        if status.outstanding == 0:
            receiver.cancel()
        try:
            await asyncio.wait_for(receiver, SERVER_EXIT_TIMEOUT_S)
        except (asyncio.CancelledError, asyncio.TimeoutError):
            pass
        ops.tally("status", status.num_sent,
                  status.failures + status.close())
        writer_b.close()
        try:
            await writer_b.wait_closed()
        except OSError:
            pass  # B already reset; its requests were failed above
        # Let the server see B's end of stream before it stops, so it
        # has no connection left to cancel mid-read.
        await asyncio.sleep(0.1)
        await call("stop", {"cmd": "stop"})
        writer_a.close()
        return {"status": status, "attach_s": attach_s,
                "attach_bytes": attach_bytes, "loop_windows": windows,
                "save_s": save_s,
                "saved_status": saved_status, "final_status": final_status,
                "checkpoint_path": checkpoint_path,
                "loop_wall_s": scaled.wall_s, "loop_scaled_s": scaled.scaled_s,
                "sim_s": epochs * self.EPOCH_S}


async def _send_status(writer: asyncio.StreamWriter, status: OpenLoop,
                       finished: asyncio.Event,
                       running: asyncio.Event) -> None:
    """Send ``status`` whenever one is due until ``finished`` is set;
    hold while ``running`` is clear."""
    line = json.dumps({"cmd": "status"}).encode() + b"\n"
    clock = time.perf_counter
    while not finished.is_set():
        await running.wait()
        delay = status.due(status.num_sent) - clock()
        if delay > 0.0:
            try:
                await asyncio.wait_for(finished.wait(), delay)
            except asyncio.TimeoutError:
                pass
            continue
        status.sent(clock())
        try:
            writer.write(line)
            await writer.drain()
        except OSError:
            return


async def _receive_status(reader: asyncio.StreamReader, status: OpenLoop,
                          finished: asyncio.Event) -> None:
    """Match responses to requests in send order until all are in."""
    clock = time.perf_counter
    while not (finished.is_set() and status.outstanding == 0):
        try:
            line = await reader.readline()
        except (OSError, ValueError):
            return
        if not line:
            return
        try:
            ok = json.loads(line).get("ok") is True
        except ValueError:
            ok = False
        if status.outstanding > 0:
            status.answered(clock(), ok=ok)


def _service_outputs(service, horizon_s: float) -> Dict[str, float]:
    """Simulated outputs of the restored (horizon) state."""
    import numpy as np
    fct = service.fct_values()
    extras = service.report().extras.get("fct", {})
    status = service.status()
    return {
        "goodput_mbps": float(extras.get("delivered_bits", 0.0))
        / horizon_s / 1e6,
        "flows": float(status.get("flows", 0)),
        "flows_completed": float(status.get("flows_completed", 0)),
        "fct_p50_s": float(np.median(fct)) if fct.size else 0.0,
        "events": float(status.get("events_processed", 0)),
    }


def _collect(trace_dir: str) -> List[Dict[str, Any]]:
    """The server's layer dump(s), removed after reading."""
    dumps = []
    if os.path.isdir(trace_dir):
        for name in sorted(os.listdir(trace_dir)):
            path = os.path.join(trace_dir, name)
            with open(path, "r", encoding="utf-8") as stream:
                dumps.append(json.load(stream))
            os.remove(path)
    return dumps


def _read_line(process: subprocess.Popen, timeout_s: float) -> str:
    """The next line of the process's stdout, or raise on timeout/exit."""
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    try:
        if not selector.select(timeout_s):
            raise TimeoutError(f"no output within {timeout_s} s")
    finally:
        selector.close()
    line = process.stdout.readline()
    if not line:
        raise RuntimeError(f"server exited with {process.wait()}")
    return line.strip()


def _command_once(port: int, command: Dict[str, Any]) -> None:
    """Send one command on a fresh connection (best-effort shutdown)."""
    import socket
    with socket.create_connection((HOST, port), timeout=10.0) as sock:
        sock.sendall(json.dumps(command).encode() + b"\n")
        sock.recv(1 << 16)


def _kill(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()


def latency_values(reps: List[Rep]) -> Dict[str, Any]:
    """The service's client-observed metrics pooled over repetitions."""
    status: List[float] = []
    lateness: List[float] = []
    attach: List[float] = []
    attach_bytes: List[int] = []
    save: List[float] = []
    load: List[float] = []
    failed = 0
    for rep in reps:
        stream: OpenLoop = rep.extra["status"]
        status.extend(stream.latency_s)
        lateness.extend(stream.lateness_s)
        failed += stream.failures
        attach.extend(rep.extra["attach_s"])
        attach_bytes.extend(rep.extra["attach_bytes"])
        save.extend(rep.extra["checkpoint_save_s"])
        load.extend(rep.extra["checkpoint_load_s"])
    result: Dict[str, Any] = {"status_samples": len(status),
                              "status_failed": failed}
    if status:
        summary = latency_summary(status)
        result["status_p50_ms"] = summary["p50"] * 1e3
        result["status_p99_ms"] = summary["p99"] * 1e3
        result["status_beyond_p99"] = summary["beyond_p99"]
    if lateness:
        result["status_lateness_p99_ms"] = nearest_rank(lateness, 99) * 1e3
        result["status_lateness_max_ms"] = max(lateness) * 1e3
    if attach:
        result["attach_p50_ms"] = nearest_rank(attach, 50) * 1e3
        result["attach_samples"] = len(attach)
    if attach_bytes:
        result["attach_payload_kb_p50"] = nearest_rank(attach_bytes, 50) / 1024
        result["attach_payload_kb_max"] = max(attach_bytes) / 1024
    if save:
        result["checkpoint_save_s"] = nearest_rank(save, 50)
    if load:
        result["checkpoint_load_s"] = nearest_rank(load, 50)
    return result
