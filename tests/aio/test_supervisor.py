"""Supervisor tests: traffic-driven suspicion and beacons, snapshot
restart, restart budget, the grant-wait provider and its wiring, and the
recovery table."""

import asyncio
import collections
import math

import pytest

from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig
from repro.aio.supervisor import (
    MAX_RESTARTS,
    SUSPECT_MEANS,
    WAIT_WINDOW,
    ClusterSupervisor,
)
from repro.aio.virtualtime import run_virtual
from repro.analysis.experiments import run_aio_recovery
from repro.core.config import ProtocolConfig
from repro.core.messages import HeartbeatMsg, WhoHasMsg
from repro.fuzz import InvariantOracle
from repro.wire.smoke import service_config

DELAY = 0.01


def config(**overrides) -> ProtocolConfig:
    base = dict(trap_gc="rotation", single_outstanding=True,
                retry_timeout=25.0, regen_timeout=30.0, census_window=8.0,
                loan_timeout=80.0, regen_quorum=True)
    base.update(overrides)
    return ProtocolConfig(**base)


def make_cluster(n=4, **kw):
    return AioCluster("fault_tolerant", n, seed=3, config=config(),
                      delay=DELAY, reliability=ReliabilityConfig(), **kw)


class TestSupervision:
    def test_crash_suspect_restart_clear(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)  # learn the heartbeat cadence
            cluster.crash(1)
            await asyncio.sleep(2.0)
            await sup.stop()
            await cluster.stop()
            kinds = [(e["event"], e["node"]) for e in sup.events]
            assert ("suspect", 1) in kinds
            assert ("restart", 1) in kinds
            assert ("clear", 1) in kinds
            # suspect precedes restart precedes clear
            assert kinds.index(("suspect", 1)) \
                < kinds.index(("restart", 1)) \
                < kinds.index(("clear", 1))
            assert not cluster.drivers[1].crashed
            assert sup.restarts[1] == 1

        run_virtual(main())

    def test_suspicion_pushed_into_cores_and_cleared(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.crash(2)
            # Suspected ~0.92 s in (8 ln 10 heartbeat intervals of 50 ms),
            # restarted 0.2 s later.
            await asyncio.sleep(1.0)
            # Routing avoids the dead node while it is down.
            live_suspects = [cluster.drivers[n].core.suspected
                             for n in (0, 1, 3)]
            assert all(2 in s for s in live_suspects)
            await asyncio.sleep(2.0)
            assert all(2 not in cluster.drivers[n].core.suspected
                       for n in (0, 1, 3))
            await sup.stop()
            await cluster.stop()

        run_virtual(main())

    def test_restart_restores_snapshot_but_never_the_token(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            # Pin the token on node 0 (the configured initial holder) so
            # its snapshot has real history, then crash it red-handed.
            await cluster.acquire(0, timeout=20.0)
            await asyncio.sleep(0.2)
            snap = sup.snapshot_of(0)
            assert snap is not None and snap["last_visit"] >= 0
            cluster.crash(0)
            await asyncio.sleep(2.0)
            core = cluster.drivers[0].core
            # Durable state came back; token ownership did not — a reborn
            # initial holder must not resurrect a stale token.
            assert core.last_visit >= snap["last_visit"]
            assert not core.has_token
            await sup.stop()
            await cluster.stop()

        run_virtual(main())

    def test_max_restarts_gives_up(self):
        sup, events, status = crash_past_the_budget(linger=0.0)
        kinds = [e["event"] for e in events if e["node"] == 1]
        assert kinds.count("restart") == MAX_RESTARTS == 5
        assert kinds.count("gave_up") == 1
        assert kinds[-1] == "gave_up"
        assert status["restarts"] == MAX_RESTARTS
        assert status["crashed"] and status["suspected"]

    def test_a_node_past_its_budget_is_reported_once(self):
        """Past its restart budget a crashed node is reported once, and
        the supervisor schedules nothing more for it, however long it
        stays down."""
        sup, events, status = crash_past_the_budget(linger=60.0)
        assert sup.events == events
        assert [e["event"] for e in events].count("gave_up") == 1
        assert sup._restart_at == {}
        assert status["restarts"] == MAX_RESTARTS

    def test_adaptive_provider_wired_into_cores(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            loop = asyncio.get_running_loop()
            await asyncio.sleep(1.0)  # the token rotates: nobody waits
            core = cluster.drivers[1].core
            idle = core.regen_delay_provider()
            waits = []
            for _ in range(4):
                asked = loop.time()
                await cluster.acquire(1, timeout=20.0)
                waits.append((loop.time() - asked) / DELAY)
                cluster.release(1)
                await asyncio.sleep(0.2)
            adaptive = core.regen_delay_provider()
            suspect_delay = core._suspect_delay()
            await sup.stop()
            await cluster.stop()
            # Sightings feed nothing: a second of rotation leaves the
            # provider without history, and the configuration decides.
            assert idle is None
            assert not hasattr(sup, "token_detectors")
            # Each grant wait enters the window in delays; the provider
            # is SUSPECT_MEANS times their mean ...
            assert len(sup.waits[1]) == 4
            expected = SUSPECT_MEANS * sum(waits) / len(waits)
            assert abs(adaptive - expected) < 1e-6
            # ... floored at the configured regen_timeout.
            assert suspect_delay == max(30.0, adaptive)

        run_virtual(main())

    def test_a_wait_that_spans_a_recovery_is_left_out(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            for _ in range(3):
                await cluster.acquire(1, timeout=20.0)
                cluster.release(1)
            before = list(sup.waits[1])
            # Crash the token's holder red-handed: node 1 waits through a
            # census and a regeneration.
            await cluster.acquire(2, timeout=20.0)
            cluster.crash(2)
            await cluster.acquire(1, timeout=20.0)
            epoch = cluster.drivers[1].core.epoch
            spanned = cluster.drivers[1].core.granted_since
            await sup.stop()
            await cluster.stop()
            assert epoch > 0  # the grant came from a regenerated token
            assert spanned is None
            assert list(sup.waits[1]) == before
            assert len(before) == 3

        run_virtual(main())

    def test_status_reports_per_node(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.crash(3)
            await asyncio.sleep(1.0)  # suspected, not yet restarted
            status = sup.status()
            assert status[3]["crashed"] and status[3]["suspected"]
            assert status[3]["silence"] >= sup.suspect_after
            assert not status[0]["crashed"]
            assert status[0]["silence"] < sup.beacon_after
            await sup.stop()
            await cluster.stop()

        run_virtual(main())


def crash_past_the_budget(linger: float):
    """Crash node 1 once more than ``MAX_RESTARTS`` times, 2 s apart, then
    leave it down ``linger`` more virtual seconds.  Returns the
    supervisor, its events as of the last crash + 2 s, and node 1's
    status at the end."""
    async def main():
        cluster = make_cluster()
        sup = ClusterSupervisor(cluster)
        await cluster.start()
        await sup.start()
        await asyncio.sleep(1.0)
        for _ in range(MAX_RESTARTS + 1):
            cluster.crash(1)
            await asyncio.sleep(2.0)
        events = list(sup.events)
        await asyncio.sleep(linger)
        status = sup.status()[1]
        await sup.stop()
        await cluster.stop()
        return sup, events, status

    return run_virtual(main())


def fed(*waits):
    """Node 1's provider and wait window after grants that waited
    ``waits`` (in delays) each, fed as the grants would feed them."""
    async def main():
        cluster = make_cluster()
        sup = ClusterSupervisor(cluster)
        await sup.start()
        core = cluster.drivers[1].core
        for wait in waits:
            core.granted_since = 0.0
            sup._on_app_event(1, "granted", (), wait * DELAY)
        await sup.stop()
        return core.regen_delay_provider, list(sup.waits[1])

    return run_virtual(main())


class TestGrantWaitProvider:
    """The provider behind ``regen_delay_provider``: SUSPECT_MEANS times
    the mean of the node's last WAIT_WINDOW grant waits."""

    def test_no_value_below_three_waits(self):
        for count in range(3):
            provider, waits = fed(*[1.0] * count)
            assert len(waits) == count
            assert provider() is None
        provider, _ = fed(1.0, 1.0, 1.0)
        assert provider() is not None

    def test_the_mean_of_a_regular_cadence(self):
        provider, waits = fed(1.0, 1.0, 1.0, 1.0)
        assert waits == pytest.approx([1.0] * 4)
        assert provider() / SUSPECT_MEANS == pytest.approx(1.0)

    def test_a_multiple_of_the_mean_wait(self):
        # phi(t) = t / (mean * ln 10) crosses 8 at 8 * mean * ln 10.
        provider, waits = fed(0.5, 1.0, 1.5, 1.0)
        assert waits == pytest.approx([0.5, 1.0, 1.5, 1.0])
        assert SUSPECT_MEANS == pytest.approx(8.0 * math.log(10.0))
        assert provider() == pytest.approx(SUSPECT_MEANS * 1.0)

    def test_adapts_to_the_wait_cadence(self):
        # A slow ring waits proportionally longer before suspecting.
        fast, _ = fed(0.01, 0.01, 0.01)
        slow, _ = fed(10.0, 10.0, 10.0)
        assert fast() < slow()
        assert slow() / fast() == pytest.approx(1000.0)

    def test_the_oldest_wait_leaves_after_the_window(self):
        assert WAIT_WINDOW == 64
        provider, waits = fed(100.0, *[1.0] * WAIT_WINDOW)
        assert waits == pytest.approx([1.0] * WAIT_WINDOW)
        assert provider() == pytest.approx(SUSPECT_MEANS)

    def test_a_zero_wait_is_floored(self):
        provider, waits = fed(0.0, 0.0, 0.0)
        assert waits == [1e-6] * 3
        assert provider() == pytest.approx(SUSPECT_MEANS * 1e-6)


def beacons_sent(cluster) -> collections.Counter:
    """Beacons each node sends from now on, counted per beacon (a beacon
    goes to both ring neighbours)."""
    sent: collections.Counter = collections.Counter()

    def count(src, dst, msg):
        if (isinstance(msg, HeartbeatMsg)
                and dst == cluster.membership.view.succ(src)):
            sent[src] += 1

    cluster.network.on_send.append(count)
    return sent


class TestLiveness:
    """Liveness is read off delivered frames; only an unheard node
    beacons, and a silent peer is suspected at a deadline."""

    def test_suspect_after_keeps_the_phi_silence(self):
        sup = ClusterSupervisor(make_cluster())
        # phi 8 at one beat per 5-delay interval: 92.1 delays.
        assert sup.suspect_after == pytest.approx(
            8.0 * math.log(10.0) * 5 * DELAY)
        assert sup.restart_delay == pytest.approx(20 * DELAY)
        assert sup.beacon_after == pytest.approx(sup.suspect_after / 4)

    def test_an_idle_ring_beacons_every_other_quarter(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            sent = beacons_sent(cluster)
            await cluster.start()
            await sup.start()
            await cluster.acquire(0, timeout=20.0)  # held: nothing flows
            await asyncio.sleep(10.0)
            await sup.stop()
            await cluster.stop()
            return sup, sent

        sup, sent = run_virtual(main())
        assert sorted(sent) == [0, 1, 2, 3]
        # The supervisor wakes every quarter.  A beacon is heard a delay
        # after it goes, so at the next wake its sender has been silent
        # for less than a quarter: a silent node beacons every other wake.
        for count in sent.values():
            assert abs(count - 10.0 / (2 * sup.beacon_after)) <= 1
        assert sup.events == []

    def test_a_node_whose_frames_arrive_sends_no_beacon(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            sent = beacons_sent(cluster)
            await cluster.start()
            await sup.start()
            loop = asyncio.get_running_loop()
            until = loop.time() + 5.0
            while loop.time() < until:
                for node in range(4):
                    await cluster.acquire(node, timeout=20.0)
                    cluster.release(node)
            await sup.stop()
            await cluster.stop()
            return sup, sent

        sup, sent = run_virtual(main())
        assert sent == {}
        assert sup.events == []

    def test_a_crashed_peer_is_suspected_at_the_deadline(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.crash(1)
            # Suspected 92.1 delays after its last frame lands, restarted
            # 20 delays later.
            await asyncio.sleep(1.0)
            last_heard = sup.heard[1]
            await sup.stop()
            await cluster.stop()
            return sup, last_heard

        sup, last_heard = run_virtual(main())
        suspected = [e["t"] for e in sup.events
                     if (e["event"], e["node"]) == ("suspect", 1)]
        assert len(suspected) == 1
        assert abs(suspected[0] - last_heard - sup.suspect_after) <= DELAY

    def test_a_node_talking_only_to_a_crashed_peer_is_not_suspected(self):
        # Node 2 keeps sending, but only to crashed node 1: nothing of it
        # is heard, so it beacons to node 3 and stays unsuspected.
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await cluster.acquire(0, timeout=20.0)  # held: nothing flows
            sent = beacons_sent(cluster)
            cluster.crash(1)
            for _ in range(300):
                cluster.network.send(2, 1, WhoHasMsg(origin=2, probe_seq=0))
                await asyncio.sleep(DELAY)
            await sup.stop()
            await cluster.stop()
            return sup, sent

        sup, sent = run_virtual(main())
        assert sent[2] >= 3 * 10.0 * DELAY / sup.beacon_after - 1
        assert [(e["event"], e["node"]) for e in sup.events
                if e["event"] == "suspect"] == [("suspect", 1)]

    def test_a_partitioned_node_is_suspected_and_cleared_on_heal(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster)
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.network.split([3], [0, 1, 2])
            await asyncio.sleep(1.5)
            during = set(sup.suspected)
            cluster.network.heal_all()
            await asyncio.sleep(0.5)
            await sup.stop()
            await cluster.stop()
            return sup, during

        sup, during = run_virtual(main())
        assert during == {3}
        assert sup.suspected == set()
        assert [(e["event"], e["node"]) for e in sup.events] == [
            ("suspect", 3), ("clear", 3)]
        assert sup.restarts == {}  # partitioned, not dead


class TestClusterRegressions:
    def test_timed_out_waiter_does_not_swallow_next_grant(self):
        async def main():
            cluster = make_cluster()
            await cluster.start()
            # Pin the token elsewhere so an acquire on node 1 times out.
            await cluster.acquire(2, timeout=20.0)
            try:
                await cluster.acquire(1, timeout=0.05)
                raise AssertionError("expected TimeoutError")
            except asyncio.TimeoutError:
                pass
            assert cluster.pending_acquires(1) == 0  # no leaked waiter
            cluster.release(2)
            # The next acquire must win its own grant, not lose it to the
            # dead waiter's queue slot.
            await cluster.acquire(1, timeout=20.0)
            cluster.release(1)
            await cluster.stop()

        run_virtual(main())

    def test_a_trickle_of_acquires_does_not_postpone_recovery(self):
        # Only a node's first waiter requests: each repeated request
        # re-armed the core's suspect timer, and thirty acquires 0.1 s
        # apart were first granted 3.3 s after the holder crashed.
        async def first_grant(acquires):
            cluster = make_cluster()
            await cluster.start()
            loop = asyncio.get_running_loop()
            await cluster.acquire(2, timeout=20.0)  # node 2 holds ...
            cluster.crash(2)                        # ... and dies
            crashed_at = loop.time()
            granted = []
            tasks = []
            for _ in range(acquires):
                task = asyncio.create_task(cluster.acquire(1, timeout=60.0))
                task.add_done_callback(lambda _: granted.append(loop.time()))
                tasks.append(task)
                await asyncio.sleep(0.1)
            while not granted:
                await asyncio.sleep(0.01)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await cluster.stop()
            return granted[0] - crashed_at

        single = run_virtual(first_grant(1))
        trickle = run_virtual(first_grant(30))
        assert single < 0.5
        assert trickle == single

    def test_leave_while_holding_raises_with_elapsed(self):
        async def main():
            cluster = make_cluster()
            await cluster.start()
            await cluster.acquire(1, timeout=20.0)
            try:
                await cluster.leave(1, timeout=0.1)
                raise AssertionError("expected MembershipError")
            except Exception as exc:
                assert "still holds the token" in str(exc)
                assert "0.1" in str(exc)  # reports the timeout budget
            cluster.release(1)
            await cluster.leave(1)
            assert 1 not in cluster.drivers
            await cluster.stop()

        run_virtual(main())

    def test_restarted_initial_holder_does_not_remint(self):
        async def main():
            cluster = make_cluster()
            await cluster.start()
            await asyncio.sleep(0.5)
            cluster.crash(0)
            await asyncio.sleep(0.2)
            cluster.restart(0)
            # The factory would give node 0 the token at cluster birth;
            # a rebuild must come back empty-handed.
            assert not cluster.drivers[0].core.has_token
            assert cluster.drivers[0].core.last_visit == -1
            await cluster.stop()

        run_virtual(main())

    def test_restart_rearms_pending_acquires(self):
        async def main():
            cluster = make_cluster()
            await cluster.start()
            await asyncio.sleep(0.2)
            cluster.crash(2)
            waiter = asyncio.create_task(cluster.acquire(2, timeout=20.0))
            await asyncio.sleep(0.2)
            assert cluster.pending_acquires(2) == 1
            cluster.restart(2)
            await waiter  # re-armed on restart, served by rotation
            cluster.release(2)
            await cluster.stop()

        run_virtual(main())

    def test_crash_preserves_recv_watermark_across_restart(self):
        async def main():
            cluster = make_cluster()
            await cluster.start()
            await asyncio.sleep(0.5)  # rotation builds dedup state
            old_state = cluster.drivers[1].channel.export_recv_state()
            assert old_state  # the ring has been talking to node 1
            cluster.crash(1)
            cluster.restart(1)
            fresh = cluster.drivers[1].channel
            for src, (inc, low, seen) in old_state.items():
                assert fresh._seen[src] == (inc, low, seen)
            await cluster.stop()

        run_virtual(main())

    def test_restart_bumps_incarnation(self):
        async def main():
            cluster = make_cluster()
            await cluster.start()
            assert cluster.drivers[3].channel.incarnation == 0
            cluster.crash(3)
            cluster.restart(3)
            assert cluster.drivers[3].channel.incarnation == 1
            cluster.crash(3)
            cluster.restart(3)
            assert cluster.drivers[3].channel.incarnation == 2
            await cluster.stop()

        run_virtual(main())


class TestParkedToken:
    """The served configuration parks an idle token (``idle_pause``, the
    paper's demand-adaptive token speed), in virtual time: n = 3, 1 ms."""

    def test_an_idle_ring_parks_its_token(self):
        async def main():
            cluster = served_cluster(3, 0.001, 0)
            supervisor = ClusterSupervisor(cluster)
            await cluster.start()
            await supervisor.start()
            await asyncio.sleep(1.0)
            await supervisor.stop()
            await cluster.stop()
            return cluster

        cluster = run_virtual(main())
        pause = cluster.config.idle_pause
        assert pause > 0
        hops = cluster.messages.count("TokenMsg")
        # A parked hop costs the pause plus the delay it travels (a full
        # speed token makes 1,001 hops here).
        assert 0 < hops <= 1.0 / 0.001 / (pause + 1) + 1


class TestTokenLostInFlight:
    def test_a_token_lost_in_flight_is_regenerated(self):
        """The oracle's ``lose_token`` swallows the parked token on its
        next hop, past the ARQ (acked, never retransmitted): the first
        acquire waits out the suspect timer and a census, the token is
        reborn at one epoch everywhere, and nobody is suspected."""
        async def main():
            cluster = served_cluster(5, DELAY, 3)
            oracle = InvariantOracle(cluster, protocol="fault_tolerant")
            oracle.attach()
            supervisor = ClusterSupervisor(cluster)
            await cluster.start()
            await supervisor.start()
            loop = asyncio.get_running_loop()
            await asyncio.sleep(0.5)
            oracle.lose_token()
            while not oracle.injected_token_losses:
                await asyncio.sleep(DELAY)
            waits = []
            for node in (1, 3, 4):
                asked = loop.time()
                await cluster.acquire(node, timeout=30.0)
                waits.append(round(loop.time() - asked, 6))
                cluster.release(node)
            await asyncio.sleep(0.1)
            await supervisor.stop()
            await cluster.stop()
            return cluster, oracle, supervisor, waits

        cluster, oracle, supervisor, waits = run_virtual(main())
        assert oracle.injected_token_losses == 1
        assert oracle.violation is None
        assert {d.core.epoch for d in cluster.drivers.values()} == {5}
        # The first wait spans the suspect timer (>= 160 delays) and a census.
        assert waits == [1.8, 0.12, 0.01]
        assert supervisor.events == []


# -- the recovery table (DESIGN.md §10, "The idle token parks") ---------------


def served_cluster(n: int, delay: float, seed: int,
                   pause: float = None) -> AioCluster:
    config = service_config("fault_tolerant")
    if pause is not None:
        config.idle_pause = pause
    return AioCluster("fault_tolerant", n, seed=seed, config=config,
                      delay=delay, reliability=ReliabilityConfig())


def crash_each_in_turn(n: int, delay: float, seed: int,
                       cycles: int = 10) -> list:
    """Crash-to-grant (virtual s) of each cycle: crash node ``c % n``,
    acquire at its successor, give the supervisor a second to repair."""
    async def main():
        cluster = served_cluster(n, delay, seed)
        supervisor = ClusterSupervisor(cluster)
        await cluster.start()
        await supervisor.start()
        loop = asyncio.get_running_loop()
        await asyncio.sleep(1.0)
        times = []
        for cycle in range(cycles):
            victim = cycle % n
            crashed_at = loop.time()
            cluster.crash(victim)
            successor = (victim + 1) % n
            await cluster.acquire(successor, timeout=60.0)
            times.append(loop.time() - crashed_at)
            cluster.release(successor)
            await asyncio.sleep(1.0)
        await supervisor.stop()
        await cluster.stop()
        return times

    return run_virtual(main())


def crash_a_parked_holder(n: int, delay: float, pause: float) -> float:
    """Crash-to-grant (virtual s) at the successor of a fresh cluster's
    parked holder, after a second of idle rotation."""
    async def main():
        cluster = served_cluster(n, delay, 0, pause)
        supervisor = ClusterSupervisor(cluster)
        await cluster.start()
        await supervisor.start()
        loop = asyncio.get_running_loop()
        await asyncio.sleep(1.0)
        for _ in range(10_000):
            parked = [node for node, driver in cluster.drivers.items()
                      if driver.core.has_token and driver.core._parked]
            if parked:
                break
            await asyncio.sleep(delay / 10)
        assert parked, "the token never came to rest"
        crashed_at = loop.time()
        cluster.crash(parked[0])
        successor = (parked[0] + 1) % n
        await cluster.acquire(successor, timeout=60.0)
        waited = loop.time() - crashed_at
        await supervisor.stop()
        await cluster.stop()
        return waited

    return run_virtual(main())


def us(seconds: float) -> int:
    return round(seconds * 1e6)


#: DESIGN §10's recovery table in microseconds of virtual time, row by row:
#: ``run_aio_recovery(cycles=4)`` mttr and max; the worst cycle of
#: ``crash_each_in_turn`` per seed; ``crash_a_parked_holder`` at pause 2
#: and at pause 10.
RECOVERY_TABLE = {
    "run_aio_recovery": (239_487, 504_596),
    "in_turn_n3_1ms": (168_000, 164_721, 168_000, 160_197, 168_000),
    "in_turn_n5_10ms": (1_726_711, 1_652_118, 1_734_755, 1_720_252,
                        1_696_056),
    "parked_holder_n3_1ms": (168_000, 168_000),
    "parked_holder_n5_10ms": (1_680_000, 1_680_000),
}
SEEDS = (2001, 1, 2, 3, 4)
SIZES = {"n3_1ms": (3, 0.001), "n5_10ms": (5, 0.01)}
#: Crash-to-grant of a parked holder before the requester timed its own
#: wait, at pause 2 (at pause 10 it was 0.616 s and 10.2 s).
SIGHTING_DETECTOR = {"n3_1ms": 0.174, "n5_10ms": 2.84}


@pytest.mark.parametrize("row", sorted(RECOVERY_TABLE))
def test_recovery_table(row):
    """Every row pinned, bit-exact across hosts.  A requester times its
    own wait, so recovery does not grow with ``idle_pause``, and one
    recovery does not teach the detector to wait longer for the next."""
    if row == "run_aio_recovery":
        result = run_aio_recovery(cycles=4)
        assert (result["grants"], result["restarts"]) == (4, 4)
        measured = (us(result["mttr"]), us(result["max_ttr"]))
    elif row.startswith("parked_holder_"):
        size = row[len("parked_holder_"):]
        measured = tuple(us(crash_a_parked_holder(*SIZES[size], pause))
                         for pause in (2.0, 10.0))
        assert measured[0] == measured[1]  # flat in the pause
        assert measured[1] <= us(SIGHTING_DETECTOR[size])
    else:
        size = row[len("in_turn_"):]
        single = crash_a_parked_holder(*SIZES[size], 10.0)
        cycles = [crash_each_in_turn(*SIZES[size], seed) for seed in SEEDS]
        measured = tuple(us(max(times)) for times in cycles)
        # No compounding: no cycle is more than 10 % slower than one
        # holder crash on a fresh cluster.
        assert max(map(max, cycles)) <= 1.1 * single
    assert measured == RECOVERY_TABLE[row]
