"""Ladder rungs: one layer at a time, with everything above it removed.

Each rung runs for at least ``RUNG_SECONDS`` of wall time (a 2 ms
micro-bench repeats to nothing) in a fresh interpreter and prints one
JSON line.  The rungs that live elsewhere: ``wire.codec`` runs inside
the traced server child over the frame mix it captured, and
``wire.server.stub_rtt_us`` is the ordinary load generator against
``serve_child.py --stub``.

    transport   bare WireTransport, two attached nodes, no cores, delay=0
    memory      AioCluster over the in-memory AioTransport at the shipped
                delay, driven in the wire_light_n3 shape (no sockets)
    kernel      sim.kernel executing events whose handler does nothing
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from serve_child import DELAY  # noqa: E402
from stats import percentile  # noqa: E402

RUNG_SECONDS = 0.6


async def _transport() -> Dict[str, float]:
    from repro.core.messages import GimmeMsg
    from repro.wire.transport import WireTransport

    transport = WireTransport(delay=0.0)
    transport.attach(0)
    inbox = transport.attach(1)
    await transport.start()
    # A search message: about the smallest frame the protocol sends,
    # where per-frame cost dominates.
    msg = GimmeMsg(requester=0, req_seq=1, span=2, visit_stamp=3)
    window = 256      # below the link's bounded queue: nothing is refused
    frames = 0
    started = time.perf_counter()
    while time.perf_counter() - started < RUNG_SECONDS:
        for _ in range(window):
            transport.send(0, 1, msg)
        for _ in range(window):
            await inbox.get()
        frames += window
    wall = time.perf_counter() - started
    drops = transport.counters.backpressure_drops
    await transport.aclose()
    return {"frames": frames, "frames_per_s": frames / wall,
            "backpressure_drops": drops}


async def _memory(seed: int) -> Dict[str, float]:
    from repro.aio.cluster import AioCluster
    from repro.aio.reliability import ReliabilityConfig
    from repro.aio.supervisor import ClusterSupervisor
    from repro.wire.smoke import service_config

    n = 3
    cluster = AioCluster("fault_tolerant", n, seed=seed,
                         config=service_config("fault_tolerant"),
                         delay=DELAY, reliability=ReliabilityConfig())
    supervisor = ClusterSupervisor(cluster)
    await cluster.start()
    await supervisor.start()
    latencies: List[float] = []
    node = 0
    warm_until = time.perf_counter() + 0.2
    started = 0.0
    while True:
        t0 = time.perf_counter()
        if started and t0 - started >= RUNG_SECONDS:
            break
        await cluster.acquire(node, timeout=10.0)
        t1 = time.perf_counter()
        cluster.release(node)
        node = (node + 1) % n
        if t0 >= warm_until:
            started = started or t0
            latencies.append(t1 - t0)
    await supervisor.stop()
    await cluster.stop()
    return {"acquires": len(latencies),
            "acquire_ms_p50": percentile(latencies, 50) * 1e3}


def _kernel() -> Dict[str, float]:
    from repro.sim.kernel import Simulator

    def nothing() -> None:
        pass

    sim = Simulator()
    batch = 20_000
    started = time.perf_counter()
    while time.perf_counter() - started < RUNG_SECONDS:
        for index in range(batch):
            sim.post(1.0 + index % 7, nothing)
        sim.run()
    wall = time.perf_counter() - started
    return {"events": sim.executed_total,
            "events_per_s": sim.executed_total / wall}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rung", required=True,
                        choices=("transport", "memory", "kernel"))
    parser.add_argument("--seed", type=int, default=2001)
    args = parser.parse_args(argv)
    result: Dict[str, Any]
    if args.rung == "transport":
        result = asyncio.run(_transport())
    elif args.rung == "memory":
        result = asyncio.run(_memory(args.seed))
    else:
        result = _kernel()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
