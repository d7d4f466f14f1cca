"""Asyncio runtime tests: transport, driver, cluster, locks, membership."""

import asyncio

import pytest

from repro.aio.cluster import AioCluster
from repro.aio.virtualtime import RUNNING_LOOP
from repro.core.config import ProtocolConfig
from repro.core.messages import TokenMsg
from repro.errors import ConfigError, MembershipError, NetworkError
from repro.sim.network import Network
from tests.clocks import attach_inbox


def run(coro):
    return asyncio.run(coro)


DELAY = 0.002


class TestTransport:
    def test_attach_and_deliver(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.001)
            inbox = attach_inbox(t, 1)
            attach_inbox(t, 0)
            t.send(0, 1, "hello")
            src, msg = await asyncio.wait_for(inbox.get(), 1.0)
            assert (src, msg) == (0, "hello")

        run(main())

    def test_double_attach_rejected(self):
        async def main():
            t = Network(RUNNING_LOOP)
            attach_inbox(t, 1)
            with pytest.raises(NetworkError):
                attach_inbox(t, 1)

        run(main())

    def test_detached_inbox_drops(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.001)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            t.detach(1)
            t.send(0, 1, "x")
            await asyncio.sleep(0.01)
            assert t.dropped_count == 1

        run(main())

    def test_cheap_loss_injection(self):
        class Cheap:
            reliable = False

        async def main():
            t = Network(RUNNING_LOOP, delay=0.0, loss_rate=0.5)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            for _ in range(200):
                t.send(0, 1, Cheap())
            assert 40 < t.dropped_count < 160

        run(main())

    def test_validation(self):
        with pytest.raises(NetworkError):
            Network(RUNNING_LOOP, delay=-1.0)
        with pytest.raises(NetworkError):
            Network(RUNNING_LOOP, loss_rate=2.0)


class TestAioCluster:
    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            AioCluster("nope", n=4)

    def test_lock_roundtrip(self):
        async def main():
            cluster = AioCluster("binary_search", n=6, seed=1, delay=DELAY)
            await cluster.start()
            try:
                async with cluster.lock(3, timeout=5.0) as holder:
                    assert holder == 3
            finally:
                await cluster.stop()

        run(main())

    def test_grants_are_serialized(self):
        async def main():
            cluster = AioCluster("binary_search", n=8, seed=2, delay=DELAY)
            await cluster.start()
            in_section = 0
            overlaps = []

            async def worker(node):
                nonlocal in_section
                async with cluster.lock(node, timeout=10.0):
                    in_section += 1
                    overlaps.append(in_section)
                    await asyncio.sleep(0.003)
                    in_section -= 1

            try:
                await asyncio.gather(*(worker(i) for i in range(8)))
            finally:
                await cluster.stop()
            assert max(overlaps) == 1
            assert sorted(cluster.grant_order) == list(range(8))

        run(main())

    def test_grant_order_is_total(self):
        async def main():
            cluster = AioCluster("ring", n=4, seed=3, delay=DELAY)
            await cluster.start()
            try:
                for node in (2, 0, 3):
                    async with cluster.lock(node, timeout=5.0):
                        pass
            finally:
                await cluster.stop()
            assert cluster.grant_order == [2, 0, 3]

        run(main())

    def test_acquire_unknown_member(self):
        async def main():
            cluster = AioCluster("ring", n=4, seed=4, delay=DELAY)
            await cluster.start()
            try:
                with pytest.raises(MembershipError):
                    await cluster.acquire(99)
            finally:
                await cluster.stop()

        run(main())


class TestDynamicMembership:
    def test_join_then_lock(self):
        async def main():
            cluster = AioCluster("binary_search", n=4, seed=5, delay=DELAY)
            await cluster.start()
            try:
                new_id = cluster.join()
                assert new_id == 4
                assert len(cluster.membership.view) == 5
                async with cluster.lock(new_id, timeout=10.0):
                    pass
            finally:
                await cluster.stop()

        run(main())

    def test_leave_then_ring_heals(self):
        async def main():
            cluster = AioCluster("binary_search", n=5, seed=6, delay=DELAY)
            await cluster.start()
            try:
                await cluster.leave(2)
                assert 2 not in cluster.membership.view
                # Remaining members still get served.
                async with cluster.lock(3, timeout=10.0):
                    pass
                async with cluster.lock(4, timeout=10.0):
                    pass
            finally:
                await cluster.stop()

        run(main())

    def test_views_pushed_to_cores(self):
        async def main():
            cluster = AioCluster("binary_search", n=4, seed=7, delay=DELAY)
            await cluster.start()
            try:
                cluster.join()
                for driver in cluster.drivers.values():
                    assert len(driver.core.ring) == 5
                    assert driver.core.ring.version == 1
            finally:
                await cluster.stop()

        run(main())

    def test_join_with_sponsor_position(self):
        async def main():
            cluster = AioCluster("binary_search", n=3, seed=8, delay=DELAY)
            await cluster.start()
            try:
                new_id = cluster.join(sponsor=0)
                assert cluster.membership.view.members == (0, new_id, 1, 2)
            finally:
                await cluster.stop()

        run(main())


class TestColocatedWaiters:
    def test_one_grant_admits_one_waiter(self):
        """Regression: two coroutines locking through the SAME node must be
        serialized — one grant resolves exactly one waiter (FIFO)."""
        async def main():
            cluster = AioCluster("binary_search", n=4, seed=9, delay=DELAY)
            await cluster.start()
            inside = 0
            worst = []

            async def worker():
                nonlocal inside
                async with cluster.lock(2, timeout=10.0):
                    inside += 1
                    worst.append(inside)
                    await asyncio.sleep(0.004)
                    inside -= 1

            try:
                await asyncio.gather(worker(), worker(), worker())
            finally:
                await cluster.stop()
            assert max(worst) == 1
            assert cluster.grant_order.count(2) == 3

        run(main())


@pytest.mark.parametrize("protocol,finder", [
    ("directed_search", "ProbeMsg"),
    ("push", "AdvertMsg"),
    ("hybrid", "AdvertMsg"),
])
def test_search_parts_follow_the_ring_view(protocol, finder):
    """Probes and adverts take their geometry from the dynamic ring view:
    after a leave and a join nothing is sent to the departed node, the
    joined node (an id no ``% n`` can produce) is probed/advertised to,
    and every member still acquires."""
    from repro.aio.virtualtime import run_virtual

    async def main():
        cluster = AioCluster(protocol, n=6, seed=11, delay=0.01,
                             config=ProtocolConfig(idle_pause=2.0))
        sent = []
        cluster.transport.on_send.append(
            lambda src, dst, msg: sent.append((dst, type(msg).__name__)))
        await cluster.start()
        try:
            async with cluster.lock(0, timeout=5.0):
                # The token is held here, so none is in flight to 3.
                await cluster.leave(3)
                joined = cluster.join()
            members = cluster.membership.view.members
            assert members == (0, 1, 2, 4, 5, joined) and joined >= 6
            del sent[:]
            for node in members:
                async with cluster.lock(node, timeout=5.0):
                    pass
                await asyncio.sleep(0.1)  # idle: the token parks
        finally:
            await cluster.stop()
        assert {dst for dst, _ in sent} <= set(members)
        assert (joined, finder) in sent

    run_virtual(main())


def test_linear_search_follows_the_ring_view():
    """Rotation GC and the round counter read the dynamic ring view, not
    the configured ``n``: on a ring grown past ``n`` a trap is kept for a
    full circulation of the *grown* ring, and after node 0 leaves the
    round still advances once per circulation (at the new first member)."""
    from repro.aio.virtualtime import run_virtual

    async def main():
        cluster = AioCluster("linear_search", n=4, seed=11, delay=0.01,
                             config=ProtocolConfig(trap_gc="rotation"))
        hops = []
        cluster.transport.on_send.append(
            lambda src, dst, msg: hops.append((src, dst, msg.round_no))
            if isinstance(msg, TokenMsg) else None)
        await cluster.start()
        try:
            cluster.join()
            assert cluster.membership.view.members == (0, 1, 2, 3, 4)
            await asyncio.sleep(0.3)  # every node gets a visit stamp
            async with cluster.lock(0, timeout=5.0):
                # Node 2 was visited 3 hops ago; its ask traps 3, 4 and 0.
                waiter = asyncio.create_task(cluster.acquire(2, timeout=5.0))
                await asyncio.sleep(0.1)
                del hops[:]
            await waiter
            cluster.release(2)
            await asyncio.sleep(0.1)
            # The token jumps to 2, serves it and moves on to 3, where the
            # trap is now 4 ticks old: under one circulation of the five
            # members, so it is still honoured (measured on n = 4 it was
            # dropped one hop early).
            assert [hop[:2] for hop in hops[:3]] == [(0, 2), (2, 3), (3, 2)]

            async with cluster.lock(1, timeout=5.0):
                await cluster.leave(0)
                del hops[:]
            await asyncio.sleep(0.5)
            first = cluster.membership.view.members[0]
            assert first == 1
            rounds = [round_no for _, dst, round_no in hops if dst == first]
            assert len(rounds) >= 10
            assert rounds == list(range(rounds[0], rounds[0] + len(rounds)))
        finally:
            await cluster.stop()

    run_virtual(main())
