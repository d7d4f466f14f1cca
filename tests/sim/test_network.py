"""The network's contract: delays, loss, partitions, and the
expensive/cheap reliability split.  Every class that takes the ``clock``
fixture runs on the simulator and again, as its ``...OnLoop`` subclass,
on a virtual-time event loop."""

import random
from dataclasses import dataclass

import pytest

from repro.core.messages import (
    AskMsg,
    GimmeMsg,
    LoanMsg,
    LoanReturnMsg,
    RegenerateMsg,
    TokenMsg,
    WhoHasMsg,
)
from repro.errors import NetworkError
from repro.sim.kernel import Simulator
from repro.sim.network import (
    ConstantDelay,
    ExponentialDelay,
    Network,
    UniformDelay,
)
from tests.clocks import run


@dataclass(frozen=True)
class Cheap:
    payload: int = 0
    reliable = False


@dataclass(frozen=True)
class Expensive:
    payload: int = 0
    reliable = True


def make_net(clock, loss_rate=0.0, dup_rate=0.0, delay=1.0, seed=0):
    net = Network(clock, random.Random(seed), delay=delay,
                  loss_rate=loss_rate, dup_rate=dup_rate)
    inboxes = {i: [] for i in range(4)}
    for i in range(4):
        net.attach(i, lambda src, msg, i=i: inboxes[i].append((src, msg)))
    return net, inboxes


def drops_of(net):
    drops = []
    net.on_drop.append(lambda src, dst, msg, reason:
                       drops.append((src, dst, reason)))
    return drops


class TestDelivery:
    def test_basic_delivery_with_unit_delay(self, clock):
        net, inboxes = make_net(clock)
        arrived = []
        net.on_deliver.append(lambda s, d, m: arrived.append(clock.time()))
        net.send(0, 1, Expensive(7))
        run(clock)
        assert inboxes[1] == [(0, Expensive(7))]
        assert arrived == [1.0]

    def test_self_send_allowed(self, clock):
        net, inboxes = make_net(clock)
        net.send(2, 2, Expensive())
        run(clock)
        assert inboxes[2] == [(2, Expensive())]

    def test_unknown_sender_rejected(self, clock):
        net, _ = make_net(clock)
        with pytest.raises(NetworkError):
            net.send(99, 0, Expensive())

    def test_detached_destination_counts_dropped(self, clock):
        net, inboxes = make_net(clock)
        drops = drops_of(net)
        net.send(0, 1, Expensive())
        net.detach(1)  # the message is still in flight
        run(clock)
        assert net.dropped_count == 1
        assert net.delivered_count == 0
        assert drops == [(0, 1, "detached")]

    def test_double_attach_rejected(self, clock):
        net, _ = make_net(clock)
        with pytest.raises(NetworkError):
            net.attach(0, lambda s, m: None)

    def test_counters(self, clock):
        net, _ = make_net(clock)
        net.send(0, 1, Expensive())
        net.send(1, 2, Expensive())
        run(clock)
        assert net.sent_count == 2
        assert net.delivered_count == 2

    def test_on_send_hook(self, clock):
        net, _ = make_net(clock)
        seen = []
        net.on_send.append(lambda s, d, m: seen.append((s, d)))
        net.send(0, 3, Expensive())
        assert seen == [(0, 3)]

    def test_on_send_fires_even_for_dropped(self, clock):
        net, _ = make_net(clock, loss_rate=0.999999, seed=1)
        sends = []
        net.on_send.append(lambda s, d, m: sends.append(m))
        drops = drops_of(net)
        for _ in range(20):
            net.send(0, 1, Cheap())
        # Offered load is visible regardless of the messages' fate.
        assert len(sends) == 20
        assert drops == [(0, 1, "loss")] * 20


class TestReliabilitySplit:
    def test_cheap_messages_can_be_lost(self, clock):
        net, inboxes = make_net(clock, loss_rate=0.5, seed=1)
        for _ in range(100):
            net.send(0, 1, Cheap())
        run(clock)
        delivered = len(inboxes[1])
        assert 20 < delivered < 80
        assert net.dropped_count == 100 - delivered

    def test_expensive_messages_never_lost(self, clock):
        net, inboxes = make_net(clock, loss_rate=0.9, seed=1)
        for _ in range(50):
            net.send(0, 1, Expensive())
        run(clock)
        assert len(inboxes[1]) == 50
        assert net.dropped_count == 0

    def test_cheap_messages_can_be_duplicated(self, clock):
        net, inboxes = make_net(clock, dup_rate=0.5, seed=2)
        for _ in range(100):
            net.send(0, 1, Cheap())
        net.send(0, 2, Expensive())
        run(clock)
        assert len(inboxes[1]) > 100
        assert len(inboxes[2]) == 1   # the expensive class is never copied

    def test_loss_rate_validation(self, clock):
        with pytest.raises(NetworkError):
            Network(clock, random.Random(0), loss_rate=1.5)
        with pytest.raises(NetworkError):
            Network(clock, random.Random(0), dup_rate=1.0)
        with pytest.raises(NetworkError):
            Network(clock, random.Random(0), delay=-1.0)


class TestCrash:
    def test_crashed_node_receives_nothing(self, clock):
        net, inboxes = make_net(clock)
        drops = drops_of(net)
        net.crash(1)
        net.send(0, 1, Expensive())
        run(clock)
        assert inboxes[1] == []
        assert net.is_down(1)
        assert drops == [(0, 1, "down")]

    def test_recover(self, clock):
        net, inboxes = make_net(clock)
        net.crash(1)
        net.recover(1)
        net.send(0, 1, Expensive())
        run(clock)
        assert len(inboxes[1]) == 1


class TestPartition:
    def test_partition_blocks_both_directions_for_cheap(self, clock):
        net, inboxes = make_net(clock)
        drops = drops_of(net)
        net.partition(0, 1)
        net.send(0, 1, Cheap())
        net.send(1, 0, Cheap())
        run(clock)
        net.heal_all()
        run(clock)
        # Cheap traffic over a blocked link is gone for good.
        assert inboxes[0] == [] and inboxes[1] == []
        assert net.dropped_count == 2
        assert drops == [(0, 1, "partition"), (1, 0, "partition")]

    def test_partition_parks_expensive_until_heal(self, clock):
        net, inboxes = make_net(clock)
        net.partition(0, 1)
        assert net.partitioned(0, 1) and net.partitioned(1, 0)
        net.send(0, 1, Expensive(42))
        run(clock)
        assert inboxes[1] == []
        assert net.dropped_count == 0  # parked, not lost
        net.heal(0, 1)
        run(clock)
        assert inboxes[1] == [(0, Expensive(42))]

    def test_unrelated_links_unaffected(self, clock):
        net, inboxes = make_net(clock)
        net.partition(0, 1)
        net.send(0, 2, Expensive())
        run(clock)
        assert len(inboxes[2]) == 1

    def test_asymmetric_partition(self, clock):
        net, inboxes = make_net(clock)
        net.partition(0, 1, symmetric=False)
        net.send(0, 1, Expensive())  # blocked direction: parked
        net.send(1, 0, Expensive())  # open direction: delivered
        run(clock)
        assert inboxes[1] == []
        assert len(inboxes[0]) == 1
        net.heal(0, 1, symmetric=False)
        run(clock)
        assert len(inboxes[1]) == 1

    def test_split_blocks_every_cross_link(self, clock):
        net, _ = make_net(clock)
        net.split([0, 1], [2, 3])
        for a in (0, 1):
            for b in (2, 3):
                assert net.partitioned(a, b) and net.partitioned(b, a)
        assert not net.partitioned(0, 1) and not net.partitioned(2, 3)
        net.heal_all()
        assert not net.partitioned(0, 2)

    def test_heal_all_flushes_every_parked_link_in_send_order(self, clock):
        net, inboxes = make_net(clock)
        net.split([0], [1, 2])
        net.partition(3, 1)
        for payload, (src, dst) in enumerate([(0, 1), (2, 0), (3, 1), (0, 2)]):
            net.send(src, dst, Expensive(payload))
        run(clock)
        assert all(inbox == [] for inbox in inboxes.values())
        net.heal(0, 2)           # opens 0 <-> 2 only
        run(clock)
        assert inboxes[0] == [(2, Expensive(1))]
        assert inboxes[2] == [(0, Expensive(3))]
        net.heal_all()
        run(clock)
        assert inboxes[1] == [(0, Expensive(0)), (3, Expensive(2))]
        assert net.dropped_count == 0


class TestDelayModels:
    def test_constant_delay_validation(self):
        with pytest.raises(NetworkError):
            ConstantDelay(0.0)

    def test_uniform_delay_bounds(self):
        rng = random.Random(0)
        model = UniformDelay(1.0, 2.0)
        samples = [model.sample(rng, 0, 1) for _ in range(100)]
        assert all(1.0 <= s <= 2.0 for s in samples)

    def test_uniform_delay_validation(self):
        with pytest.raises(NetworkError):
            UniformDelay(2.0, 1.0)

    def test_exponential_delay_positive_and_floored(self):
        rng = random.Random(0)
        model = ExponentialDelay(1.0, minimum=0.5)
        samples = [model.sample(rng, 0, 1) for _ in range(200)]
        assert all(s >= 0.5 for s in samples)

    def test_exponential_mean_roughly_right(self):
        rng = random.Random(3)
        model = ExponentialDelay(2.0, minimum=0.0)
        samples = [model.sample(rng, 0, 1) for _ in range(3000)]
        assert 1.7 < sum(samples) / len(samples) < 2.3

    def test_exponential_validation(self):
        with pytest.raises(NetworkError):
            ExponentialDelay(0.0)

    def test_a_sampled_delay_draws_per_message(self):
        sim = Simulator()
        net = Network(sim, random.Random(0), delay=UniformDelay(1.0, 2.0))
        arrived = []
        net.attach(0, lambda src, msg: arrived.append(sim.now))
        for _ in range(5):
            net.send(0, 0, Expensive())
        sim.run()
        assert len(set(arrived)) == 5
        assert all(1.0 <= t <= 2.0 for t in arrived)


class TestProtocolMessageReliability:
    """Regression pins for the fuzzing harness: loss/duplication may touch
    only ``reliable=False`` protocol messages, and the token lineage
    (token, loan, loan-return, regenerate) is never dropped or duplicated
    no matter how hostile the rates."""

    CHEAP = (
        GimmeMsg(requester=1, req_seq=0, span=1, visit_stamp=0),
        AskMsg(requester=1, req_seq=0, visit_stamp=0),
        WhoHasMsg(origin=1, probe_seq=0),
    )
    LINEAGE = (
        TokenMsg(clock=1, round_no=0),
        LoanMsg(clock=1, round_no=0, lender=0, requester=1, req_seq=0),
        LoanReturnMsg(clock=2, round_no=0),
        RegenerateMsg(new_clock=4, epoch=1),
    )

    def test_reliability_flags_are_as_documented(self):
        for msg in self.CHEAP:
            assert msg.reliable is False, msg
        for msg in self.LINEAGE:
            assert msg.reliable is True, msg

    def test_token_lineage_survives_extreme_rates(self, clock):
        net, inboxes = make_net(clock, loss_rate=0.99, dup_rate=0.99, seed=7)
        for msg in self.LINEAGE:
            for _ in range(25):
                net.send(0, 1, msg)
        run(clock)
        # Exactly once each: never dropped, never duplicated.
        assert len(inboxes[1]) == 25 * len(self.LINEAGE)
        assert net.dropped_count == 0

    def test_cheap_protocol_messages_bear_the_faults(self, clock):
        net, inboxes = make_net(clock, loss_rate=0.99, seed=7)
        for msg in self.CHEAP:
            for _ in range(50):
                net.send(0, 1, msg)
        run(clock)
        assert len(inboxes[1]) < 20  # almost everything lost
        assert net.dropped_count == 150 - len(inboxes[1])

    def test_cheap_protocol_messages_duplicate(self, clock):
        net, inboxes = make_net(clock, dup_rate=0.8, seed=7)
        for _ in range(50):
            net.send(0, 1, GimmeMsg(requester=1, req_seq=0, span=1,
                                    visit_stamp=0))
        run(clock)
        assert len(inboxes[1]) > 50

    def test_token_parked_not_dropped_across_partition(self, clock):
        net, inboxes = make_net(clock, loss_rate=0.99, dup_rate=0.99, seed=7)
        net.partition(0, 1)
        net.send(0, 1, TokenMsg(clock=1, round_no=0))
        run(clock)
        assert inboxes[1] == []  # parked, not delivered...
        assert net.dropped_count == 0  # ...and not dropped
        net.heal(0, 1)
        run(clock)
        # Delivered exactly once after the heal.
        assert [m for _, m in inboxes[1]] == [TokenMsg(clock=1, round_no=0)]


class TestDeliveryOnLoop(TestDelivery):
    on_loop = True


class TestReliabilitySplitOnLoop(TestReliabilitySplit):
    on_loop = True


class TestCrashOnLoop(TestCrash):
    on_loop = True


class TestPartitionOnLoop(TestPartition):
    on_loop = True


class TestProtocolMessageReliabilityOnLoop(TestProtocolMessageReliability):
    on_loop = True
