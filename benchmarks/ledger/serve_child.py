"""The wire system under test, in a process of its own.

Composes exactly what ``repro serve`` composes — ``WireTransport`` ->
``AioCluster("fault_tolerant", reliability=ReliabilityConfig())`` ->
``ClusterSupervisor`` -> ``LockServiceServer(port=0)``, sanitizer at its
library default — and adds only a JSON-lines control channel on
stdin/stdout:

    -> {"ready": <port>}                      once listening
    <- {"cmd": "snap"}   -> counters, ``process_time``, ``perf_counter``,
                            what the failure detectors did (``alarms``)
    <- {"cmd": "quit", "window": [t1, t2]}    -> final line, exit 0

``--traced`` installs the span wrappers of :mod:`spans` around each
layer's entry points *before* anything is constructed; the final line
then carries per-layer self times for spans inside ``window``.
``--stub`` swaps the cluster for one whose ``acquire`` returns at once
(the ``wire.server.stub_rtt_us`` ladder rung).
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import pathlib
import random
import sys
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from spans import (END, NAME, PARENT, REQ, START, WALL, Tracer,  # noqa: E402
                   in_window, peak_rss_kb, self_times)

DELAY = 0.001          # the shipped default; see README "out of scope"
PROTOCOL = "fault_tolerant"
RUNG_SECONDS = 0.5
RUNG_SAMPLE = 5000


class StubCluster:
    """The least a :class:`LockServiceServer` needs behind it."""

    protocol = "stub"

    def __init__(self, n: int) -> None:
        self.drivers: Dict[int, None] = {node: None for node in range(n)}

    async def start(self) -> None:
        pass

    async def stop(self) -> None:
        pass

    async def acquire(self, node: int, timeout: Optional[float] = None) -> None:
        pass

    def release(self, node: int) -> None:
        pass

    def pending_acquires(self, node: int) -> int:
        return 0

    def crashed_nodes(self) -> List[int]:
        return []


def alarms(cluster: Any, supervisor: Any) -> Dict[str, int]:
    """What the failure detectors did.  No workload here crashes a node or
    loses a reliable message, so each of these is a false alarm: a timeout
    of a few ``delay``s that the host's scheduling outran."""
    return {
        # a node suspected the token lost and polled the ring
        "censuses": cluster.messages.by_type.get("WhoHasMsg", 0),
        # ... and a new token was minted (epochs start at 0)
        "token_epoch": max((getattr(driver.core, "epoch", 0)
                            for driver in cluster.drivers.values()), default=0),
        # the supervisor suspected a silent peer / restarted it
        "suspects": sum(1 for event in supervisor.events
                        if event["event"] == "suspect"),
        "restarts": sum(supervisor.restarts.values()),
    }


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's entry points, by the names the callers use."""
    from repro.aio.cluster import AioCluster
    from repro.aio.driver import AioNodeDriver
    from repro.aio.reliability import ReliableChannel
    from repro.aio.supervisor import ClusterSupervisor
    from repro.wire import codec, server, transport

    def count_bytes(frame: bytes) -> None:
        tracer.add("wire.codec.bytes", len(frame))

    for module in (server, transport):
        tracer.wrap_sync(module, "encode_frame", "wire.codec.encode",
                         on_result=count_bytes)
        tracer.wrap_async(module, "read_frame", "wire.codec.read_frame",
                          wall=False)
    # read_frame reaches decode_body through the codec module's globals.
    tracer.wrap_sync(codec, "decode_body", "wire.codec.decode")
    tracer.wrap_async(
        server.LockServiceServer, "_dispatch", "wire.server.session",
        req_of=lambda self, session, msg: getattr(msg, "req_id", None))
    tracer.wrap_async(AioCluster, "acquire", "aio.cluster.acquire")
    tracer.wrap_sync(AioCluster, "release", "aio.cluster.release")
    tracer.wrap_sync(transport.WireTransport, "send", "wire.transport.send")
    tracer.wrap_sync(ReliableChannel, "send", "aio.reliability.send")
    tracer.wrap_sync(ReliableChannel, "on_frame", "aio.reliability.on_frame")
    tracer.wrap_sync(AioNodeDriver, "_apply", "aio.driver.apply")
    tracer.wrap_core(PROTOCOL)
    tracer.wrap_async(ClusterSupervisor, "_monitor", "aio.supervisor.monitor",
                      wall=False)
    tracer.wrap_sync(ClusterSupervisor, "_heartbeat_sink",
                     "aio.supervisor.heartbeat_sink")


class TransportHooks:
    """Counts and transit times from the transport's public hook lists."""

    def __init__(self, tracer: Tracer, delay: float) -> None:
        self.tracer = tracer
        self.delay = delay
        self.transit: List[Tuple[float, float]] = []   # (sent_at, over_delay)
        self.sample: Deque[Tuple[int, int, object]] = collections.deque(
            maxlen=RUNG_SAMPLE)
        self._sent: Dict[Tuple[int, int, object], float] = {}

    def attach(self, transport: Any) -> None:
        transport.on_send.append(self.on_send)
        transport.on_deliver.append(self.on_deliver)
        transport.on_drop.append(self.on_drop)

    def on_send(self, src: int, dst: int, msg: object) -> None:
        self.tracer.add(f"wire.transport.sends.{type(msg).__name__}")
        self.sample.append((src, dst, msg))
        self._sent[(src, dst, msg)] = self.tracer.clock()

    def on_deliver(self, src: int, dst: int, msg: object) -> None:
        sent_at = self._sent.pop((src, dst, msg), None)
        if sent_at is not None:
            self.transit.append(
                (sent_at, self.tracer.clock() - sent_at - self.delay))

    def on_drop(self, src: int, dst: int, msg: object, reason: str) -> None:
        self._sent.pop((src, dst, msg), None)
        self.tracer.add(f"wire.transport.drops.{reason}")


def codec_rung(sample: List[Tuple[int, int, object]]) -> Dict[str, float]:
    """``wire.codec`` alone: encode then decode the captured frame mix,
    unwrapped, for at least ``RUNG_SECONDS``."""
    from repro.wire import codec

    decode = getattr(codec.decode_body, "__wrapped__", codec.decode_body)
    encode = codec.encode_frame
    if not sample:
        return {}
    frames = 0
    encode_s = decode_s = 0.0
    nbytes = sum(len(encode(src, dst, msg)) for src, dst, msg in sample)
    started = time.perf_counter()
    while time.perf_counter() - started < RUNG_SECONDS:
        t0 = time.perf_counter()
        encoded = [encode(src, dst, msg) for src, dst, msg in sample]
        t1 = time.perf_counter()
        for frame in encoded:
            decode(frame[4:])
        t2 = time.perf_counter()
        encode_s += t1 - t0
        decode_s += t2 - t1
        frames += len(encoded)
    return {"frames": frames,
            "encode_us_per_frame": encode_s / frames * 1e6,
            "decode_us_per_frame": decode_s / frames * 1e6,
            "bytes_per_frame": nbytes / len(sample)}


def trace_report(tracer: Tracer, hooks: Optional[TransportHooks],
                 window: Tuple[float, float]) -> Dict[str, Any]:
    """Per-layer self times and per-request wall chains inside ``window``."""
    spans = tracer.spans
    keep = in_window(spans, *window)
    layers = {name: row for (name, wall), row
              in self_times(spans, keep).items() if not wall}
    # One row per served request: [req_id, session wall, cluster wall].
    requests = []
    inner = {rec[PARENT]: rec[END] - rec[START] for rec in spans
             if rec[WALL] and rec[NAME] == "aio.cluster.acquire"}
    for index, rec in enumerate(spans):
        if (keep[index] and rec[WALL] and rec[NAME] == "wire.server.session"
                and index in inner):
            requests.append([rec[REQ], rec[END] - rec[START], inner[index]])
    report: Dict[str, Any] = {"layers": layers, "requests": requests,
                              "spans": len(spans)}
    if hooks is not None:
        report["transit_over_delay_s"] = [
            over for sent_at, over in hooks.transit
            if window[0] <= sent_at < window[1]]
        report["codec_rung"] = codec_rung(list(hooks.sample))
    return report


async def serve(args: argparse.Namespace) -> int:
    from repro.aio.cluster import AioCluster
    from repro.aio.reliability import ReliabilityConfig
    from repro.aio.supervisor import ClusterSupervisor
    from repro.wire.server import LockServiceServer
    from repro.wire.smoke import service_config
    from repro.wire.transport import WireTransport

    tracer: Optional[Tracer] = None
    hooks: Optional[TransportHooks] = None
    if args.traced:
        tracer = Tracer()
        install_wrappers(tracer)

    supervisor = None
    if args.stub:
        cluster: Any = StubCluster(args.nodes)
    else:
        transport = WireTransport(delay=DELAY, loss_rate=args.loss_rate,
                                  rng=random.Random(args.seed ^ 0x5EED))
        cluster = AioCluster(PROTOCOL, args.nodes, seed=args.seed,
                             config=service_config(PROTOCOL),
                             transport=transport,
                             reliability=ReliabilityConfig())
        supervisor = ClusterSupervisor(cluster)
        if tracer is not None:
            hooks = TransportHooks(tracer, DELAY)
            hooks.attach(transport)
    server = LockServiceServer(cluster, host="127.0.0.1", port=0)
    await server.start()
    if supervisor is not None:
        await supervisor.start()

    def say(doc: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    def snap() -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "t": time.perf_counter(),
            "cpu": time.process_time(),
            "grants": server.grants,
            "releases": server.releases,
            "failures": server.failures,
            "crashed": list(cluster.crashed_nodes()),
            "peak_rss_kb": peak_rss_kb(),
        }
        if not args.stub:
            doc["wire"] = cluster.transport.counters.as_dict()
            doc["reliability"] = cluster.reliability_counters.as_dict()
            doc["messages"] = cluster.messages.as_dict()
            doc["search_messages"] = cluster.messages.search_messages()
            doc["alarms"] = alarms(cluster, supervisor)
        if tracer is not None:
            doc["counts"] = dict(tracer.counts)
        return doc

    say({"ready": server.port})
    loop = asyncio.get_running_loop()
    window = (0.0, float("inf"))
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break  # the harness went away
        command = json.loads(line)
        if command["cmd"] == "snap":
            say(snap())
        elif command["cmd"] == "quit":
            window = tuple(command.get("window") or window)
            break
    final = snap()
    if supervisor is not None:
        await supervisor.stop()
    await server.stop()
    # Let the connection handlers see their sockets close before the loop
    # is torn down: asyncio logs a handler cancelled mid-read as an error.
    await asyncio.sleep(0.01)
    if tracer is not None:
        final["trace"] = trace_report(tracer, hooks, window)
        if args.spans_out:
            tracer.dump(args.spans_out)
    say(final)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--loss-rate", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--stub", action="store_true")
    parser.add_argument("--spans-out", default=None)
    return asyncio.run(serve(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
