"""Supervisor tests: heartbeat-driven suspicion, snapshot restart,
restart budget, adaptive detection wiring."""

import asyncio

from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig
from repro.aio.supervisor import ClusterSupervisor, RestartPolicy
from repro.aio.virtualtime import run_virtual
from repro.core.config import ProtocolConfig
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


def policy(**overrides) -> RestartPolicy:
    base = dict(restart_delay=20 * DELAY, heartbeat_interval=5 * DELAY,
                phi_threshold=8.0)
    base.update(overrides)
    return RestartPolicy(**base)


class TestSupervision:
    def test_crash_suspect_restart_clear(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster, policy())
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
            sup = ClusterSupervisor(cluster, policy())
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.crash(2)
            await asyncio.sleep(0.6)
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
            sup = ClusterSupervisor(cluster, policy())
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
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster, policy(max_restarts=0))
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.crash(1)
            await asyncio.sleep(2.0)
            await sup.stop()
            await cluster.stop()
            kinds = [(e["event"], e["node"]) for e in sup.events]
            assert ("gave_up", 1) in kinds
            assert ("restart", 1) not in kinds
            assert cluster.drivers[1].crashed

        run_virtual(main())

    def test_adaptive_provider_wired_into_cores(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster, policy())
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)  # token rotates: cadence observed
            core = cluster.drivers[0].core
            adaptive = core.regen_delay_provider()
            detector = sup.token_detectors[0]
            expected = detector.timeout_after(8.0) / DELAY
            await sup.stop()
            await cluster.stop()
            # The provider converts the detector's adaptive silence
            # threshold into the core's message-delay units.
            assert adaptive is not None
            assert abs(adaptive - expected) < 1e-9
            assert detector.samples >= 3

        run_virtual(main())

    def test_status_reports_per_node(self):
        async def main():
            cluster = make_cluster()
            sup = ClusterSupervisor(cluster, policy())
            await cluster.start()
            await sup.start()
            await asyncio.sleep(1.0)
            cluster.crash(3)
            await asyncio.sleep(0.6)
            status = sup.status()
            assert status[3]["crashed"] and status[3]["suspected"]
            assert not status[0]["crashed"]
            await sup.stop()
            await cluster.stop()

        run_virtual(main())


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

    @staticmethod
    def service_cluster():
        return AioCluster("fault_tolerant", 3, seed=0,
                          config=service_config("fault_tolerant"),
                          delay=0.001, reliability=ReliabilityConfig())

    def test_an_idle_ring_parks_its_token(self):
        async def main():
            cluster = self.service_cluster()
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

    def test_crashing_the_holder_of_a_parked_token(self):
        # The price of parking: the token-sighting detector learns the
        # slower cadence, so the successor's suspect timer, and with it
        # crash-to-grant, grows with idle_pause.  Pinned so a larger
        # pause or a slower detector shows here (at pause 10: 0.616 s).
        async def main():
            cluster = self.service_cluster()
            supervisor = ClusterSupervisor(cluster)
            await cluster.start()
            await supervisor.start()
            loop = asyncio.get_running_loop()
            await asyncio.sleep(1.0)  # cadence history for the detectors
            for _ in range(1000):
                parked = [node for node, driver in cluster.drivers.items()
                          if driver.core.has_token and driver.core._parked]
                if parked:
                    break
                await asyncio.sleep(0.0001)
            assert parked, "the token never came to rest"
            crashed_at = loop.time()
            cluster.crash(parked[0])
            successor = (parked[0] + 1) % 3
            await cluster.acquire(successor, timeout=30.0)
            waited = loop.time() - crashed_at
            cluster.release(successor)
            await supervisor.stop()
            await cluster.stop()
            return waited

        assert round(run_virtual(main()) * 1e6) == 173_786
