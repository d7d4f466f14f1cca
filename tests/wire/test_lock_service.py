"""Lock service over real TCP: mutual exclusion end-to-end, session
hygiene (a dead client's grants come back), timeouts, and status."""

import asyncio
import random

import pytest

from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig
from repro.errors import MembershipError
from repro.fuzz import InvariantOracle
from repro.wire.client import LoadGenerator, LockClient
from repro.wire.server import LockServiceServer
from repro.wire.smoke import service_config
from repro.wire.transport import WireTransport


def make_server(n: int = 3, protocol: str = "fault_tolerant",
                seed: int = 0) -> LockServiceServer:
    transport = WireTransport(delay=0.002, rng=random.Random(seed ^ 0xABC))
    cluster = AioCluster(protocol, n, seed=seed,
                         config=service_config(protocol),
                         transport=transport,
                         reliability=ReliabilityConfig())
    return LockServiceServer(cluster)


async def wait_until(predicate, timeout: float = 10.0, poll: float = 0.005):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError(f"condition not reached in {timeout}s")
        await asyncio.sleep(poll)


class TestAcquireRelease:
    def test_grant_and_release_over_tcp(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                client = await LockClient("127.0.0.1", server.port).connect()
                reply = await asyncio.wait_for(
                    client.acquire(timeout=20.0), timeout=25)
                assert reply.ok and reply.node >= 0
                release = await client.release(reply.node)
                assert release.ok
                await client.aclose()
                assert server.grants == 1 and server.releases == 1
            finally:
                await server.stop()

        asyncio.run(main())

    def test_mutual_exclusion_under_concurrency(self):
        async def main():
            server = make_server()
            oracle = InvariantOracle(server.cluster,
                                     protocol=server.cluster.protocol)
            oracle.attach()
            await server.start()
            in_cs = 0
            overlaps = []
            try:
                async def worker(i):
                    nonlocal in_cs
                    client = await LockClient(
                        "127.0.0.1", server.port).connect()
                    try:
                        for _ in range(5):
                            reply = await client.acquire(timeout=30.0)
                            assert reply.ok, reply.error
                            in_cs += 1
                            if in_cs > 1:
                                overlaps.append(in_cs)
                            await asyncio.sleep(0.002)
                            in_cs -= 1
                            await client.release(reply.node)
                    finally:
                        await client.aclose()

                await asyncio.gather(*(worker(i) for i in range(6)))
            finally:
                await server.stop()
            assert overlaps == []          # never two clients in the CS
            assert server.grants == 30
            assert oracle.violation is None

        asyncio.run(main())

    def test_acquire_timeout_fails_cleanly(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                holder = await LockClient("127.0.0.1", server.port).connect()
                grant = await holder.acquire(node=0, timeout=20.0)
                assert grant.ok
                # The token is held on node 0; a short-fused acquire on
                # another node cannot be served and must fail typed.
                waiter = await LockClient("127.0.0.1", server.port).connect()
                reply = await waiter.acquire(node=1, timeout=0.2)
                assert not reply.ok
                assert reply.error == "timeout"
                assert server.failures >= 1
                await holder.release(0)
                await waiter.aclose()
                await holder.aclose()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_unknown_node_is_refused(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                client = await LockClient("127.0.0.1", server.port).connect()
                reply = await client.acquire(node=99, timeout=5.0)
                assert not reply.ok and "member" in reply.error
                await client.aclose()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_release_without_grant_is_refused(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                client = await LockClient("127.0.0.1", server.port).connect()
                reply = await client.release(0)
                assert not reply.ok and "no grant" in reply.error
                await client.aclose()
            finally:
                await server.stop()

        asyncio.run(main())


class TestServerChosenNode:
    def test_round_robin_follows_joins_and_leaves(self):
        class Members:
            drivers = {0: None, 1: None, 2: None}

        server = LockServiceServer(Members())

        def pick(count):
            return [server._pick_node(-1) for _ in range(count)]

        assert pick(4) == [0, 1, 2, 0]
        Members.drivers[3] = None                   # a join
        assert sorted(pick(4)) == [0, 1, 2, 3]
        del Members.drivers[1]                      # a leave ...
        Members.drivers[7] = None                   # ... and a join: same size
        picks = pick(8)
        assert 1 not in picks and sorted(set(picks)) == [0, 2, 3, 7]
        with pytest.raises(MembershipError):
            server._pick_node(1)


class TestSessionHygiene:
    def test_dead_client_grant_returns_to_the_cluster(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                first = await LockClient("127.0.0.1", server.port).connect()
                grant = await first.acquire(node=0, timeout=20.0)
                assert grant.ok
                # Vanish without releasing: the server must hand the grant
                # back, or the token wedges forever.
                await first.aclose()
                second = await LockClient("127.0.0.1", server.port).connect()
                reply = await asyncio.wait_for(
                    second.acquire(node=1, timeout=30.0), timeout=35)
                assert reply.ok
                await second.release(1)
                await second.aclose()
            finally:
                await server.stop()

        asyncio.run(main())


class TestStatus:
    def test_status_snapshot(self):
        async def main():
            server = make_server(n=4)
            await server.start()
            try:
                client = await LockClient("127.0.0.1", server.port).connect()
                grant = await client.acquire(timeout=20.0)
                assert grant.ok
                status = await client.status()
                assert status.ok
                assert status.n == 4
                assert status.protocol == "fault_tolerant"
                assert status.grants == 1
                assert status.crashed == ()
                assert status.uptime > 0
                await client.release(grant.node)
                await client.aclose()
            finally:
                await server.stop()

        asyncio.run(main())


class TestLoadGenerator:
    def test_closed_loop_report(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                generator = LoadGenerator("127.0.0.1", server.port, seed=1)
                report = await generator.run_closed_loop(clients=3, ops=30)
            finally:
                await server.stop()
            assert report.mode == "closed"
            assert report.grants == 30
            assert report.failures == 0 and report.errors == 0
            assert report.wait_p99 >= report.wait_p50 >= 0
            assert report.throughput > 0
            doc = report.as_dict()
            assert doc["grants"] == 30 and doc["mode"] == "closed"

        asyncio.run(main())

    def test_open_loop_report(self):
        async def main():
            server = make_server()
            await server.start()
            try:
                generator = LoadGenerator("127.0.0.1", server.port, seed=2)
                report = await generator.run_open_loop(
                    mean_interval=0.005, ops=20, n=3)
            finally:
                await server.stop()
            assert report.mode == "open"
            assert report.grants == 20
            assert report.errors == 0

        asyncio.run(main())

    def test_open_loop_server_chosen_nodes(self):
        # n=0 is the CLI's --spread-nodes default: every arrival asks
        # the server to pick the node (acquire node=-1).
        async def main():
            server = make_server()
            await server.start()
            try:
                generator = LoadGenerator("127.0.0.1", server.port, seed=4)
                report = await generator.run_open_loop(
                    mean_interval=0.005, ops=15, n=0)
            finally:
                await server.stop()
            assert report.grants == 15
            assert report.errors == 0 and report.failures == 0

        asyncio.run(main())

    def test_loadgen_validates_inputs(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LoadGenerator("127.0.0.1", 1, acquire_timeout=0.0)

        async def main():
            generator = LoadGenerator("127.0.0.1", 1)
            with pytest.raises(ConfigError):
                await generator.run_closed_loop(clients=0, ops=1)
            with pytest.raises(ConfigError):
                await generator.run_closed_loop(clients=1, ops=0)
            with pytest.raises(ConfigError):
                await generator.run_open_loop(
                    mean_interval=0.005, ops=1, n=-1)

        asyncio.run(main())
