"""The ``service-live`` server process of the benchmark.

Builds the :class:`repro.service.LiveSimulationService` that
:class:`benchlib.service.ServiceLive` describes (Kuiper K1 with its
top-N cities, packet engine, every flow on its congestion controller,
no tracer, no initial traffic), serves it with
:func:`repro.service.serve_forever` on a free loopback port, and prints
``READY <port>`` once the socket listens.  After a ``stop`` command it
prints ``RSS_KB <peak resident KiB>`` and exits.

With ``--trace-dir`` it installs the layer timing wrappers before
building and, on exit, writes what they recorded to that directory.

Run by ``perfbench/run.py``; by hand::

    python3 perfbench/server.py
"""

from __future__ import annotations

import argparse
import asyncio
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from benchlib.service import ServiceLive as live
    timer = None
    if args.trace_dir:
        from benchlib import layers
        timer = layers.install(layers.LayerTimer(args.trace_dir))

    from repro import Hypatia
    from repro.service import LiveSimulationService, serve_forever
    from repro.sweep.spec import NetworkSpec
    hypatia = Hypatia.from_shell_name(live.SHELL, num_cities=live.NUM_CITIES)
    service = LiveSimulationService(
        NetworkSpec.from_network(hypatia.network), engine="packet",
        horizon_s=live.HORIZON_EPOCHS * live.EPOCH_S, epoch_s=live.EPOCH_S,
        controller=live.CONTROLLER, meta={"shell": live.SHELL})

    def ready(server) -> None:
        if timer is not None:
            timer.reset(instances=False)
        print(f"READY {server.port}", flush=True)

    asyncio.run(serve_forever(service, ready_callback=ready))
    if timer is not None:
        timer.dump_worker(layers.counters(timer))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from benchlib.common import stop_resource_tracker
    stop_resource_tracker()
    print(f"RSS_KB {rss_kb}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
