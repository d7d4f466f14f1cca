"""ARQ sublayer tests: framing, dedup, retransmission, retry budget,
incarnations, durable receive state."""

import asyncio
import random
from dataclasses import dataclass

from repro.aio.reliability import (
    AckFrame,
    DataFrame,
    ReliabilityConfig,
    ReliableChannel,
)
from repro.aio.virtualtime import RUNNING_LOOP, run_virtual
from repro.metrics.counters import ReliabilityCounters
from repro.sim.network import Network
from tests.clocks import attach_inbox


@dataclass(frozen=True)
class Token:
    body: str = "t"
    reliable = True


@dataclass(frozen=True)
class Probe:
    body: str = "p"
    reliable = False


def make_pair(transport, **cfg):
    config = ReliabilityConfig(**cfg) if cfg else ReliabilityConfig()
    a = ReliableChannel(0, transport, config=config, rng=random.Random(1),
                        counters=ReliabilityCounters())
    b = ReliableChannel(1, transport, config=config, rng=random.Random(2),
                        counters=ReliabilityCounters())
    return a, b


async def pump(inbox, channel, src_default=None):
    """Drain one inbox through a channel; return accepted payloads."""
    out = []
    while not inbox.empty():
        src, frame = inbox.get_nowait()
        payload = channel.on_frame(src, frame)
        if payload is not None:
            out.append(payload)
    return out


class TestFraming:
    def test_expensive_framed_with_per_link_seq(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            inbox = attach_inbox(t, 1)
            attach_inbox(t, 0)
            sender, _ = make_pair(t)
            sender.send(1, Token("one"))
            sender.send(1, Token("two"))
            await asyncio.sleep(0.001)
            frames = [inbox.get_nowait()[1] for _ in range(2)]
            assert all(isinstance(f, DataFrame) for f in frames)
            assert [f.seq for f in frames] == [1, 2]
            assert [f.payload.body for f in frames] == ["one", "two"]
            sender.stop()

        run_virtual(main())

    def test_cheap_bypasses_the_channel(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            inbox = attach_inbox(t, 1)
            attach_inbox(t, 0)
            sender, _ = make_pair(t)
            sender.send(1, Probe())
            await asyncio.sleep(0.001)
            _, msg = inbox.get_nowait()
            assert isinstance(msg, Probe)  # raw, unframed
            assert sender.inflight == 0
            sender.stop()

        run_virtual(main())

    def test_ack_settles_inflight(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.001)
            inbox1 = attach_inbox(t, 1)
            inbox0 = attach_inbox(t, 0)
            sender, receiver = make_pair(t)
            sender.send(1, Token())
            await asyncio.sleep(0.002)
            assert sender.inflight == 1
            accepted = await pump(inbox1, receiver)
            assert [p.body for p in accepted] == ["t"]
            await asyncio.sleep(0.002)  # ack flies back
            await pump(inbox0, sender)
            assert sender.inflight == 0
            sender.stop()
            receiver.stop()

        run_virtual(main())


class TestDedup:
    def test_duplicate_frame_accepted_once_and_reacked(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            _, receiver = make_pair(t)
            frame = DataFrame(seq=1, incarnation=0, payload=Token("once"))
            first = receiver.on_frame(0, frame)
            second = receiver.on_frame(0, frame)
            assert first is not None and first.body == "once"
            assert second is None
            assert receiver.counters.dedup_drops == 1
            # Both copies were acked: the original ack may have been lost.
            assert receiver.counters.acks == 2
            receiver.stop()

        run_virtual(main())

    def test_out_of_order_watermark_compaction(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            _, receiver = make_pair(t)
            for seq in (2, 3, 1):
                receiver.on_frame(
                    0, DataFrame(seq=seq, incarnation=0, payload=Token()))
            inc, low, seen = receiver._seen[0]
            assert (low, seen) == (3, set())  # compacted watermark
            assert receiver.on_frame(
                0, DataFrame(seq=2, incarnation=0, payload=Token())) is None
            receiver.stop()

        run_virtual(main())

    def test_sender_incarnation_resets_sequence_space(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            _, receiver = make_pair(t)
            old = DataFrame(seq=1, incarnation=0, payload=Token("old"))
            assert receiver.on_frame(0, old) is not None
            assert receiver.on_frame(0, old) is None  # dup within inc 0
            reborn = DataFrame(seq=1, incarnation=1, payload=Token("new"))
            accepted = receiver.on_frame(0, reborn)
            assert accepted is not None and accepted.body == "new"
            receiver.stop()

        run_virtual(main())


class TestRetransmission:
    def test_retransmits_until_acked(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.001)
            inbox1 = attach_inbox(t, 1)
            inbox0 = attach_inbox(t, 0)
            sender, receiver = make_pair(t, rto=0.01, max_retries=10)
            sender.send(1, Token())
            await asyncio.sleep(0.05)  # several RTOs with no ack
            assert sender.counters.retransmits >= 2
            accepted = await pump(inbox1, receiver)
            assert len(accepted) == 1  # duplicates deduped
            await asyncio.sleep(0.002)
            await pump(inbox0, sender)
            before = sender.counters.retransmits
            await asyncio.sleep(0.1)
            assert sender.counters.retransmits == before  # timer cancelled
            sender.stop()
            receiver.stop()

        run_virtual(main())

    def test_backoff_spreads_retries(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.001)
            attach_inbox(t, 0)
            times = []
            t.on_send.append(
                lambda s, d, m: times.append(
                    asyncio.get_running_loop().time()))
            sender = ReliableChannel(
                0, t, config=ReliabilityConfig(rto=0.01, backoff=2.0,
                                               jitter=0.0, max_rto=10.0,
                                               max_retries=4),
                rng=random.Random(1))
            sender.send(9, Token())  # nobody home: retries run dry
            await asyncio.sleep(1.0)
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert len(gaps) == 4
            for earlier, later in zip(gaps, gaps[1:]):
                assert later > earlier * 1.5  # exponential growth
            sender.stop()

        run_virtual(main())

    def test_bounded_budget_surrenders_frame(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.001)
            attach_inbox(t, 0)
            surrendered = []
            sender = ReliableChannel(
                0, t, config=ReliabilityConfig(rto=0.005, max_retries=3),
                rng=random.Random(1), counters=ReliabilityCounters())
            sender.on_give_up.append(
                lambda src, dst, payload: surrendered.append(
                    (src, dst, payload.body)))
            sender.send(7, Token("doomed"))
            await asyncio.sleep(1.0)
            assert surrendered == [(0, 7, "doomed")]
            assert sender.counters.give_ups == 1
            assert sender.counters.retransmits == 3
            assert sender.inflight == 0
            sender.stop()

        run_virtual(main())


class TestDurableRecvState:
    def test_restored_watermark_rejects_replayed_frame(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            _, receiver = make_pair(t)
            frame = DataFrame(seq=5, incarnation=0, payload=Token("acted-on"))
            for seq in (1, 2, 3, 4):
                receiver.on_frame(
                    0, DataFrame(seq=seq, incarnation=0, payload=Token()))
            assert receiver.on_frame(0, frame) is not None
            saved = receiver.export_recv_state()
            receiver.stop()
            # The node restarts: a fresh channel restores the watermark,
            # so the sender's retransmission of an already-acted-on frame
            # cannot resurrect its payload.
            reborn = ReliableChannel(1, t, incarnation=1,
                                     rng=random.Random(9))
            reborn.restore_recv_state(saved)
            assert reborn.on_frame(0, frame) is None
            fresh = DataFrame(seq=6, incarnation=0, payload=Token("next"))
            assert reborn.on_frame(0, fresh) is not None
            reborn.stop()

        run_virtual(main())

    def test_export_is_a_deep_copy(self):
        async def main():
            t = Network(RUNNING_LOOP, delay=0.0)
            attach_inbox(t, 0)
            attach_inbox(t, 1)
            _, receiver = make_pair(t)
            receiver.on_frame(
                0, DataFrame(seq=2, incarnation=0, payload=Token()))
            saved = receiver.export_recv_state()
            receiver.on_frame(
                0, DataFrame(seq=3, incarnation=0, payload=Token()))
            assert saved[0][2] == {2}  # mutation after export not visible
            receiver.stop()

        run_virtual(main())
