"""Cross-configuration coverage: protocols × delay models × app modes that
the focused suites don't combine."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.sim.network import ExponentialDelay, UniformDelay
from repro.workload.generators import (
    BurstyWorkload,
    FixedRateWorkload,
    HotspotWorkload,
    SaturatedWorkload,
    SingleShotWorkload,
)


class TestDelayModels:
    @pytest.mark.parametrize("protocol", ["ring", "binary_search"])
    def test_exponential_delays(self, protocol):
        cluster = Cluster.build(protocol, n=16, seed=1,
                                delay=ExponentialDelay(1.0))
        cluster.add_workload(FixedRateWorkload(mean_interval=10.0))
        cluster.run(rounds=20, max_events=500_000)
        assert cluster.responsiveness.grants() > 5
        assert cluster.token_census() <= 1

    def test_uniform_delays_with_loss(self):
        cluster = Cluster.build("binary_search", n=16, seed=2,
                                delay=UniformDelay(0.5, 2.0), loss_rate=0.3)
        cluster.add_workload(FixedRateWorkload(mean_interval=8.0))
        cluster.run(rounds=30, max_events=500_000)
        assert cluster.responsiveness.grants() > 10

    def test_fault_tolerant_with_jitter(self):
        config = ProtocolConfig(regen_timeout=200.0, loan_timeout=60.0)
        cluster = Cluster.build("fault_tolerant", n=12, seed=3,
                                delay=UniformDelay(0.5, 1.5), config=config)
        cluster.add_workload(SingleShotWorkload([(10.0, 4), (30.0, 9)]))
        cluster.run(until=500, max_events=500_000)
        assert cluster.responsiveness.grants() == 2


class TestWorkloadProtocolMatrix:
    @pytest.mark.parametrize("protocol", ["ring", "binary_search",
                                          "linear_search"])
    def test_bursty(self, protocol):
        cluster = Cluster.build(protocol, n=16, seed=4)
        cluster.add_workload(BurstyWorkload(burst_gap=80.0, burst_size=6))
        cluster.run(until=1000, max_events=2_000_000)
        assert cluster.responsiveness.grants() >= 6
        assert cluster.responsiveness.outstanding <= 6

    @pytest.mark.parametrize("protocol", ["ring", "binary_search"])
    def test_hotspot(self, protocol):
        cluster = Cluster.build(protocol, n=16, seed=5)
        cluster.add_workload(HotspotWorkload(5.0, hot_nodes=2))
        cluster.run(rounds=40, max_events=2_000_000)
        assert cluster.responsiveness.grants() > 20

    def test_saturated_binary_throughput_close_to_ring(self):
        """Saturation: both serve ~1 grant per hop-ish; binary's loans must
        not collapse throughput."""
        grants = {}
        for protocol in ("ring", "binary_search"):
            cluster = Cluster.build(protocol, n=8, seed=6)
            cluster.add_workload(SaturatedWorkload())
            cluster.run(until=2000, max_events=2_000_000)
            grants[protocol] = cluster.responsiveness.grants()
        assert grants["binary_search"] > 0.5 * grants["ring"]


class TestServiceModes:
    @pytest.mark.parametrize("protocol", ["ring", "binary_search",
                                          "linear_search"])
    def test_service_time_slows_rotation_correctly(self, protocol):
        config = ProtocolConfig(service_time=5.0)
        cluster = Cluster.build(protocol, n=8, seed=7, config=config)
        cluster.add_workload(SingleShotWorkload([(10.0, 3), (11.0, 6)]))
        cluster.run(until=300, max_events=500_000)
        assert cluster.responsiveness.grants() == 2
        # The second grant cannot start before the first's service ends.
        waits = sorted(cluster.responsiveness.responsiveness_samples)
        assert max(waits) >= 5.0

    def test_hold_mode_on_linear_search(self):
        config = ProtocolConfig(hold_until_release=True)
        cluster = Cluster.build("linear_search", n=8, seed=8, config=config)
        cluster.start()
        cluster.request(3)
        cluster.run(until=50, max_events=100_000)
        assert cluster.responsiveness.grants() == 1
        # Token is held: nobody else can get it until release.
        cluster.request(5)
        cluster.run(until=100, max_events=100_000)
        assert cluster.responsiveness.grants() == 1
        cluster.release(3)
        cluster.run(until=200, max_events=100_000)
        assert cluster.responsiveness.grants() == 2


class TestBroadcastOnOtherProtocols:
    @pytest.mark.parametrize("protocol", ["ring", "linear_search",
                                          "directed_search"])
    def test_total_order_broadcast(self, protocol):
        from repro.apps.broadcast import TotalOrderBroadcast
        cluster = Cluster.build(protocol, n=8, seed=9)
        app = TotalOrderBroadcast(cluster)
        for t, node, payload in [(5.0, 1, "x"), (5.1, 6, "y")]:
            cluster.sim.schedule_at(t, app.publish, node, payload)
        cluster.run(until=200, max_events=500_000)
        app.assert_prefix_property()
        assert app.delivered_everywhere() == 2


class TestPushAdvertEdgeCases:
    def test_stale_advert_does_not_regress_knowledge(self):
        from repro.core.messages import AdvertMsg
        from repro.core import PushCore
        core = PushCore(3, ProtocolConfig(n=8, idle_pause=2.0))
        core.known_holder = 5
        core.known_holder_clock = 50
        core.on_message(2, AdvertMsg(holder=2, clock=10, span=1), 0.0)
        assert core.known_holder == 5          # stale advert ignored

    def test_fresher_advert_updates_knowledge(self):
        from repro.core.messages import AdvertMsg
        from repro.core import PushCore
        core = PushCore(3, ProtocolConfig(n=8, idle_pause=2.0))
        core.known_holder = 5
        core.known_holder_clock = 50
        core.on_message(2, AdvertMsg(holder=2, clock=90, span=1), 0.0)
        assert core.known_holder == 2

    def test_own_advert_does_not_self_request(self):
        from repro.core.messages import AdvertMsg, RequestMsg
        from repro.core import PushCore
        from repro.core.effects import Send, recorded
        core = PushCore(3, ProtocolConfig(n=8, idle_pause=2.0))
        core.ready = True
        effects = recorded(core.on_message, 3,
                           AdvertMsg(holder=3, clock=9, span=1), 0.0)
        assert not any(isinstance(e, Send) and isinstance(e.msg, RequestMsg)
                       for e in effects)


class TestAioVariants:
    @pytest.mark.parametrize("protocol", ["ring", "hybrid",
                                          "fault_tolerant"])
    def test_lock_on_every_runtime_protocol(self, protocol):
        import asyncio
        from repro.aio.cluster import AioCluster

        async def main():
            config = ProtocolConfig()
            if protocol == "hybrid":
                config.idle_pause = 2.0
            cluster = AioCluster(protocol, n=5, seed=10, delay=0.002,
                                 config=config)
            await cluster.start()
            try:
                async with cluster.lock(2, timeout=10.0):
                    pass
                async with cluster.lock(4, timeout=10.0):
                    pass
            finally:
                await cluster.stop()
            assert cluster.grant_order == [2, 4]

        asyncio.run(main())
