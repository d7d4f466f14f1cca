"""Transport conformance: the same runtime-layer tests against both the
in-memory :class:`Network` and the real-socket :class:`WireTransport`
(the latter twice: woken by its timer fd, and with the timer-fd probe
failing so that the ``call_later`` fallback carries the delay line).

This is the acceptance proof for the wire layer: ARQ retry/dedup,
supervised crash-restart, and the invariant oracle attach to either
transport **without modification** — the tests are literally parameterized
over the implementations.  Everything runs under real wall-clock
asyncio because sockets cannot ride the virtual clock; waits poll with
generous deadlines instead of asserting exact timings.
"""

import asyncio
import random
from dataclasses import dataclass

import pytest

from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig, ReliableChannel
from repro.aio.supervisor import ClusterSupervisor
from repro.aio.virtualtime import RUNNING_LOOP
from repro.fuzz import InvariantOracle
from repro.metrics.counters import ReliabilityCounters
from repro.sim.network import Network
from repro.wire import transport as wire_transport
from repro.wire.codec import register_message
from repro.wire.smoke import service_config
from repro.wire.transport import WireTransport
from tests.clocks import attach_inbox

TRANSPORTS = ("memory", "wire", "wire-fallback")


@pytest.fixture(autouse=True)
def _no_timerfd_for_the_fallback_kind(request, monkeypatch):
    """``wire-fallback`` is the wire transport on a platform without timer
    fds: the probe says no, whatever this host could do."""
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and callspec.params.get("kind") == "wire-fallback":
        monkeypatch.setattr(wire_transport, "_timerfd_open", lambda: None)


def make_transport(kind: str, **kwargs) -> Network:
    if kind == "memory":
        return Network(RUNNING_LOOP, **kwargs)
    return WireTransport(**kwargs)


async def start_transport(transport: Network) -> None:
    start = getattr(transport, "start", None)
    if start is not None:
        await start()


async def close_transport(transport: Network) -> None:
    close = getattr(transport, "aclose", None)
    if close is not None:
        await close()


async def wait_until(predicate, timeout: float = 10.0, poll: float = 0.005):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError(f"condition not reached in {timeout}s")
        await asyncio.sleep(poll)


@register_message
@dataclass(frozen=True)
class ConformanceToken:
    body: int = 0
    reliable = True


class TestArqConformance:
    """Retry and dedup behave identically over memory and sockets."""

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_lossy_link_delivers_everything_exactly_once(self, kind):
        async def main():
            # 40% loss on cheap messages — ARQ Data/Ack frames included —
            # so delivery *requires* working retransmission.
            transport = make_transport(kind, delay=0.002, loss_rate=0.4,
                                       rng=random.Random(7))
            inbox1 = attach_inbox(transport, 1)
            attach_inbox(transport, 0)
            await start_transport(transport)
            config = ReliabilityConfig(max_retries=60)
            sender = ReliableChannel(0, transport, config=config,
                                     rng=random.Random(1),
                                     counters=ReliabilityCounters())
            receiver = ReliableChannel(1, transport, config=config,
                                       rng=random.Random(2),
                                       counters=ReliabilityCounters())
            accepted = []

            async def drain():
                while True:
                    src, frame = await inbox1.get()
                    payload = receiver.on_frame(src, frame)
                    if payload is not None:
                        accepted.append(payload.body)

            drainer = asyncio.get_running_loop().create_task(drain())
            total = 15
            for i in range(total):
                sender.send(1, ConformanceToken(i))
            try:
                await wait_until(lambda: len(accepted) >= total)
                # Linger: late retransmits must be deduped, not re-accepted.
                await asyncio.sleep(0.1)
            finally:
                drainer.cancel()
                sender.stop()
                receiver.stop()
                await close_transport(transport)
            # Exactly once, despite retransmissions (the ARQ does not
            # order across links; dedup is what is promised).
            assert sorted(accepted) == list(range(total))
            assert sender.counters.retransmits > 0

        asyncio.run(main())

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_retry_budget_gives_up_to_unreachable_peer(self, kind):
        async def main():
            transport = make_transport(kind, delay=0.001)
            attach_inbox(transport, 0)
            # Node 9 is never attached: on the wire there is no listener,
            # in memory there is no inbox — either way the ARQ burns its
            # retry budget and surrenders via on_give_up.
            await start_transport(transport)
            surrendered = []
            sender = ReliableChannel(
                0, transport,
                config=ReliabilityConfig(rto=0.01, max_retries=3),
                rng=random.Random(1), counters=ReliabilityCounters())
            sender.on_give_up.append(
                lambda src, dst, payload: surrendered.append((dst, payload)))
            sender.send(9, ConformanceToken(99))
            try:
                await wait_until(lambda: surrendered, timeout=15.0)
            finally:
                sender.stop()
                await close_transport(transport)
            assert surrendered[0][0] == 9
            assert surrendered[0][1].body == 99
            assert sender.inflight == 0

        asyncio.run(main())


class TestClusterConformance:
    """Acquire/release and supervised crash-restart on both transports."""

    def _make_cluster(self, kind: str, n: int = 3,
                      protocol: str = "fault_tolerant") -> AioCluster:
        delay = 0.002
        transport = (None if kind == "memory" else
                     WireTransport(delay=delay, rng=random.Random(11)))
        return AioCluster(
            protocol, n, seed=5,
            config=service_config(protocol),
            delay=delay,
            transport=transport,
            reliability=ReliabilityConfig(),
        )

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_acquire_release_cycle(self, kind):
        async def main():
            cluster = self._make_cluster(kind)
            oracle = InvariantOracle(cluster, protocol=cluster.protocol)
            oracle.attach()
            await cluster.start()
            try:
                for node in (0, 1, 2, 1, 0):
                    await asyncio.wait_for(cluster.acquire(node), timeout=20)
                    cluster.release(node)
                    await asyncio.sleep(0.005)
            finally:
                await cluster.stop()
            assert cluster.grant_order[:5] == [0, 1, 2, 1, 0]
            assert oracle.violation is None

        asyncio.run(main())

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_supervisor_restarts_crashed_node(self, kind):
        async def main():
            cluster = self._make_cluster(kind)
            oracle = InvariantOracle(cluster, protocol=cluster.protocol)
            oracle.attach()
            supervisor = ClusterSupervisor(cluster)
            await cluster.start()
            await supervisor.start()
            try:
                await asyncio.wait_for(cluster.acquire(0), timeout=20)
                cluster.release(0)
                cluster.crash(1)
                await wait_until(
                    lambda: supervisor.restarts.get(1, 0) >= 1, timeout=30.0)
                await wait_until(
                    lambda: not cluster.drivers[1].crashed, timeout=30.0)
                # The reborn node serves acquires again.
                await asyncio.wait_for(cluster.acquire(1), timeout=30)
                cluster.release(1)
                await asyncio.sleep(0.05)
            finally:
                await supervisor.stop()
                await cluster.stop()
            assert oracle.violation is None
            assert 1 in cluster.grant_order

        asyncio.run(main())

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_oracle_sees_identical_hook_surface(self, kind):
        """The oracle's hook points (driver sends, transport drops) exist
        and fire on both transports."""

        async def main():
            cluster = self._make_cluster(kind, protocol="binary_search")
            oracle = InvariantOracle(cluster, protocol="binary_search")
            oracle.attach()
            await cluster.start()
            try:
                await asyncio.wait_for(cluster.acquire(2), timeout=20)
                cluster.release(2)
                await asyncio.sleep(0.02)
            finally:
                await cluster.stop()
            assert oracle.checks > 0
            assert oracle.violation is None
            assert cluster.transport.delivered_count > 0

        asyncio.run(main())
