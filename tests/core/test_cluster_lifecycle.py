"""Crash, restart and join are plain calls on one cluster, on either clock:
the simulator, and a virtual-time event loop (``TestLifecycleOnLoop``).
Times are message delays on both (the loop's network takes 1 s a hop)."""

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from tests.clocks import run


class TestLifecycle:
    on_loop = False

    def build(self, clock, n=4):
        cluster = Cluster.build(
            "fault_tolerant", n, config=ProtocolConfig(regen_timeout=30.0),
            sim=clock, delay=1.0)
        granted = []
        cluster.on_grant(lambda node, seq, now: granted.append(node))
        cluster.start()
        return cluster, granted

    def assert_alive(self, cluster):
        assert all(d.failure() is None for d in cluster.drivers.values())

    def test_restart_brings_back_a_fresh_incarnation(self, clock):
        cluster, granted = self.build(clock)
        run(clock, until=0.5)           # the token is on its way to node 1
        cluster.crash(0)
        old = cluster.drivers[0]
        assert cluster.crashed_nodes() == [0]
        run(clock, until=10.0)
        fresh = cluster.restart(0)
        assert fresh is cluster.drivers[0] and fresh is not old
        assert cluster.crashed_nodes() == []
        # The factory's initial holder comes back empty-handed.
        assert not fresh.core.has_token and fresh.core.lent_to is None
        assert cluster._incarnations[0] == 1
        assert cluster.sanitizer._cores[0] is fresh.core
        cluster.request(0)
        run(clock, until=100.0)
        assert granted == [0]
        self.assert_alive(cluster)

    def test_joined_node_is_in_every_view_and_granted(self, clock):
        cluster, granted = self.build(clock)
        run(clock, until=2.0)
        newcomer = cluster.join()
        assert newcomer == 4
        view = cluster.membership.view
        assert newcomer in view
        assert all(d.core.ring is view for d in cluster.drivers.values())
        cluster.request(newcomer)
        run(clock, until=100.0)
        assert granted == [newcomer]
        self.assert_alive(cluster)

    def test_regeneration_after_a_join_keeps_the_token(self, clock):
        # The crash loses the token in flight 1 -> 2, so the three
        # requests start censuses on old cores and on the joiner at once.
        # Minting epochs by each core's own n (4 on the old cores, 5 on
        # the joiner) let node 2 fence its own loan's return: node 4
        # starved.  All cores stride by the shared id ceiling now.
        cluster, granted = self.build(clock)
        run(clock, until=1.0)
        cluster.crash(2)
        run(clock, until=3.0)
        cluster.restart(2)
        newcomer = cluster.join()
        for node in (2, newcomer, 0):
            cluster.request(node)
        run(clock, until=3000.0)
        assert sorted(granted) == [0, 2, newcomer]
        self.assert_alive(cluster)


class TestLifecycleOnLoop(TestLifecycle):
    on_loop = True
