"""WireTransport behavior at the socket layer: fault injection, bounded
queues, reconnection, and the AioTransport contract over real TCP."""

import asyncio
import dataclasses
import os
import random
import struct
import typing
from dataclasses import dataclass

import pytest

from repro.aio.cluster import AioCluster
from repro.aio.driver import AioNodeDriver
from repro.aio.reliability import ReliabilityConfig
from repro.aio.supervisor import ClusterSupervisor
from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.messages import GimmeMsg, TokenMsg
from repro.errors import CodecError, FrameError, WireError
from repro.wire import transport as wire_transport
from repro.wire.client import LockClient
from repro.wire.codec import (
    WIRE_VERSION,
    encode_frame,
    register_message,
    registered_messages,
)
from repro.wire.server import LockServiceServer
from repro.wire.smoke import service_config
from repro.wire.transport import WireConfig, WireTransport


@register_message
@dataclass(frozen=True)
class WirePing:
    n: int = 0
    reliable = False


async def wait_until(predicate, timeout: float = 10.0, poll: float = 0.005):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError(f"condition not reached in {timeout}s")
        await asyncio.sleep(poll)


def run(coro):
    return asyncio.run(coro)


def token():
    return TokenMsg(clock=1, round_no=0, served=(), membership=None,
                    epoch=0, suspects=())


class TestDataPath:
    def test_messages_cross_real_sockets(self):
        async def main():
            t = WireTransport(delay=0.001)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                t.send(0, 1, WirePing(42))
                src, msg = await asyncio.wait_for(inbox1.get(), timeout=5)
                assert (src, msg) == (0, WirePing(42))
                assert t.counters.frames_sent == 1
                assert t.counters.frames_received == 1
                assert t.counters.bytes_sent == t.counters.bytes_received > 0
                assert t.counters.connects == 1
            finally:
                await t.aclose()

        run(main())

    def test_artificial_delay_is_honoured(self):
        async def main():
            t = WireTransport(delay=0.08)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                t.send(0, 1, WirePing(1))
                await asyncio.wait_for(inbox1.get(), timeout=5)
                assert loop.time() - started >= 0.08
            finally:
                await t.aclose()

        run(main())

    def test_one_connection_multiplexes_many_senders(self):
        async def main():
            t = WireTransport(delay=0.0)
            inbox2 = t.attach(2)
            t.attach(0)
            t.attach(1)
            await t.start()
            try:
                for src in (0, 1, 0, 1):
                    t.send(src, 2, WirePing(src))
                got = []
                for _ in range(4):
                    got.append(await asyncio.wait_for(inbox2.get(), timeout=5))
                assert sorted(src for src, _ in got) == [0, 0, 1, 1]
                # All four frames rode one outbound connection to node 2.
                assert t.counters.connects == 1
            finally:
                await t.aclose()

        run(main())

    def test_addresses_are_real_endpoints(self):
        async def main():
            t = WireTransport()
            t.attach(0)
            t.attach(1)
            await t.start()
            try:
                host, port = t.address_of(0)
                assert host == "127.0.0.1" and port > 0
                assert t.port_of(0) != t.port_of(1)
                assert t.port_of(99) is None
            finally:
                await t.aclose()

        run(main())


class TestDelayLine:
    """The FIFO of delayed frames and its single wake-up timer."""

    def test_pending_frames_are_dropped_detached_at_aclose(self):
        async def main():
            t = WireTransport(delay=30.0)      # nothing comes due in here
            t.attach(0)
            t.attach(1)
            drops = []
            t.on_drop.append(lambda s, d, m, reason: drops.append((m, reason)))
            # The line (and its timer) lives from start() to aclose().
            t.send(0, 1, WirePing(8))
            assert drops == [(WirePing(8), "detached")] and t._timer is None
            drops.clear()
            await t.start()
            for n in range(3):
                t.send(0, 1, WirePing(n))
            assert len(t._line) == 3 and not drops
            fd = t._timer._fd
            assert fd is not None               # Linux CI: the timerfd path
            await t.aclose()
            assert drops == [(WirePing(n), "detached") for n in range(3)]
            assert not t._line and t._timer is None
            # The fd is closed and the loop no longer watches it.
            assert asyncio.get_running_loop().remove_reader(fd) is False
            with pytest.raises(OSError):
                os.fstat(fd)
            # A send after aclose() is refused without reopening a timer.
            t.send(0, 1, WirePing(9))
            assert drops[-1] == (WirePing(9), "detached")
            assert t._timer is None
            assert t.counters.frames_sent == 0

        run(main())

    def test_zero_delay_transmits_inline(self):
        async def main():
            t = WireTransport(delay=0.0)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                t.send(0, 1, WirePing(1))
                # Encoded and on its link before send() returned: the
                # delay line never saw it.
                assert list(t._links[1].pending) == [
                    encode_frame(0, 1, WirePing(1))]
                assert not t._line
                assert (await asyncio.wait_for(inbox1.get(), 5))[1] == WirePing(1)
            finally:
                await t.aclose()

        run(main())

    def test_lowering_delay_mid_run_cannot_reorder_the_fifo(self):
        async def main():
            t = WireTransport(delay=0.05)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                t.send(0, 1, WirePing(1))
                t.delay = 0.001                 # a later send, due sooner
                t.send(0, 1, WirePing(2))
                t.delay = 0.08
                t.send(0, 1, WirePing(3))
                dues = [due for due, *_ in t._line]
                assert dues == sorted(dues) and dues[0] == dues[1] < dues[2]
                got = [(await asyncio.wait_for(inbox1.get(), 5))[1].n
                       for _ in range(3)]
                assert got == [1, 2, 3]
            finally:
                await t.aclose()

        run(main())

    def test_duplicated_cheap_frame_is_queued_twice(self):
        async def main():
            # rng=Random(1): the first two draws are 0.13 (above the 0.1
            # loss rate: kept) and 0.85 (below the dup rate: duplicated).
            t = WireTransport(delay=0.002, loss_rate=0.1, dup_rate=0.9,
                              rng=random.Random(1))
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                t.send(0, 1, WirePing(7))
                assert [msg for *_, msg in t._line] == [WirePing(7)] * 2
                for _ in range(2):
                    assert (await asyncio.wait_for(inbox1.get(), 5))[1] \
                        == WirePing(7)
                assert t.counters.frames_sent == 2
            finally:
                await t.aclose()

        run(main())

    def test_counters_stay_exact_per_frame_under_batched_writes(self):
        async def main():
            t = WireTransport(delay=0.005)
            inbox1 = t.attach(1)
            inbox2 = t.attach(2)
            t.attach(0)
            await t.start()
            try:
                # One burst: all of it comes due on the same timer expiry
                # and leaves as one joined write per link.
                sent = [(0, 1 + n % 2, WirePing(n)) for n in range(40)]
                for src, dst, msg in sent:
                    t.send(src, dst, msg)
                got1 = [(await asyncio.wait_for(inbox1.get(), 5))[1].n
                        for _ in range(20)]
                got2 = [(await asyncio.wait_for(inbox2.get(), 5))[1].n
                        for _ in range(20)]
                assert got1 == list(range(0, 40, 2))
                assert got2 == list(range(1, 40, 2))
                counters = t.counters
                assert counters.frames_sent == counters.frames_received == 40
                assert counters.bytes_sent == counters.bytes_received == sum(
                    len(encode_frame(*item)) for item in sent)
                assert counters.connects == 2
            finally:
                await t.aclose()

        run(main())

    def test_frame_is_never_early(self):
        async def main():
            t = WireTransport(delay=0.003)
            t.attach(1)
            t.attach(0)
            loop = asyncio.get_running_loop()
            sent_at, transit = {}, []
            t.on_send.append(
                lambda s, d, m: sent_at.__setitem__(m.n, loop.time()))
            t.on_deliver.append(
                lambda s, d, m: transit.append(loop.time() - sent_at[m.n]))
            await t.start()
            try:
                for n in range(50):
                    t.send(0, 1, WirePing(n))
                    await asyncio.sleep(0.0004)
                await wait_until(lambda: len(transit) == 50)
                assert min(transit) >= 0.003
            finally:
                await t.aclose()

        run(main())

    def test_no_fd_leak_across_start_aclose_cycles(self):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to count descriptors")

        async def cycle():
            t = WireTransport(delay=0.0005)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            t.send(0, 1, WirePing(1))           # opens the timer and a link
            await asyncio.wait_for(inbox1.get(), timeout=5)
            await t.aclose()

        async def main():
            await cycle()                       # warm: the loop's own fds
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(100):
                await cycle()
            await asyncio.sleep(0.01)           # inbound sockets see EOF
            assert len(os.listdir("/proc/self/fd")) <= before

        run(main())

    def test_without_a_timerfd_the_line_wakes_by_call_later(self, monkeypatch):
        monkeypatch.setattr(wire_transport, "_timerfd_open", lambda: None)

        async def main():
            t = WireTransport(delay=0.01)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                for n in range(3):
                    t.send(0, 1, WirePing(n))
                assert t._timer._fd is None and t._timer._handle is not None
                got = [(await asyncio.wait_for(inbox1.get(), 5))[1].n
                       for _ in range(3)]
                assert got == [0, 1, 2]
                assert loop.time() - started >= 0.01
            finally:
                await t.aclose()
            assert t._timer is None

        run(main())

    def test_lossless_loopback_needs_next_to_no_retransmits(self):
        """At the shipped ``delay`` a hop must cost about one delay: the
        ARQ's RTO is four of them, and with ``call_later`` holding each
        frame for 1.8 the round trip brushed it — under ``repro serve``,
        11-21 % of data frames were retransmitted on a link that loses
        nothing.  The same composition, a few hundred token hops: the
        allowance is for a shared host's 3-5 ms scheduling stalls, each
        of which costs the frame in flight one retransmit."""

        async def main():
            transport = WireTransport(delay=0.001, rng=random.Random(11))
            cluster = AioCluster(
                "fault_tolerant", 3, seed=5,
                config=service_config("fault_tolerant"),
                transport=transport, reliability=ReliabilityConfig())
            supervisor = ClusterSupervisor(cluster)
            server = LockServiceServer(cluster)
            await server.start()
            await supervisor.start()
            client = await LockClient("127.0.0.1", server.port).connect()
            try:
                for _ in range(400):
                    reply = await client.acquire(timeout=20)
                    assert reply.ok
                    await client.release(reply.node)
            finally:
                await client.aclose()
                await supervisor.stop()
                await server.stop()
            return cluster.reliability_counters

        counters = run(main())
        assert counters.data_frames >= 400
        assert counters.retransmits <= 0.03 * counters.data_frames
        assert counters.dedup_drops <= 0.03 * counters.data_frames
        assert counters.give_ups == 0


class TestFaultInjection:
    def test_loss_drops_cheap_before_the_socket(self):
        async def main():
            t = WireTransport(delay=0.0, loss_rate=0.99,
                              rng=random.Random(3))
            t.attach(0)
            t.attach(1)
            drops = []
            t.on_drop.append(lambda s, d, m, reason: drops.append(reason))
            await t.start()
            try:
                # rng=Random(3): the first draw is above 0.01, so this
                # send is deterministically lost.
                t.send(0, 1, WirePing(1))
                await asyncio.sleep(0.05)
                assert drops == ["loss"]
                assert t.counters.frames_sent == 0  # never hit a socket
            finally:
                await t.aclose()

        run(main())

    def test_partition_parks_reliable_and_flushes_on_heal(self):
        async def main():
            t = WireTransport(delay=0.001)
            inbox1 = t.attach(1)
            t.attach(0)
            drops = []
            t.on_drop.append(lambda s, d, m, reason: drops.append(reason))
            await t.start()
            try:
                t.partition(0, 1)
                t.send(0, 1, WirePing(5))     # cheap: dropped
                t.send(0, 1, token())         # expensive: parked
                await asyncio.sleep(0.05)
                assert drops == ["partition"]
                assert inbox1.empty()
                assert t.counters.frames_sent == 0
                t.heal_all()
                src, msg = await asyncio.wait_for(inbox1.get(), timeout=5)
                assert src == 0 and isinstance(msg, TokenMsg)
                assert t.counters.frames_sent == 1  # flushed over the wire
            finally:
                await t.aclose()

        run(main())

    def test_crashed_destination_drops_after_the_wire(self):
        async def main():
            t = WireTransport(delay=0.0)
            inbox1 = t.attach(1)
            t.attach(0)
            drops = []
            t.on_drop.append(lambda s, d, m, reason: drops.append(reason))
            await t.start()
            try:
                t.crash(1)
                t.send(0, 1, WirePing(1))
                await wait_until(lambda: drops)
                assert drops == ["down"]
                # The frame genuinely crossed the socket and was discarded
                # at delivery, exactly like the in-memory transport.
                assert t.counters.frames_received == 1
                assert inbox1.empty()
                t.recover(1)
                t.send(0, 1, WirePing(2))
                src, msg = await asyncio.wait_for(inbox1.get(), timeout=5)
                assert msg == WirePing(2)
            finally:
                await t.aclose()

        run(main())

    def test_connection_reset_redials_transparently(self):
        async def main():
            t = WireTransport(delay=0.0)
            inbox1 = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                t.send(0, 1, WirePing(1))
                await asyncio.wait_for(inbox1.get(), timeout=5)
                assert t.counters.connects == 1
                t.reset_connections()
                t.send(0, 1, WirePing(2))
                src, msg = await asyncio.wait_for(inbox1.get(), timeout=5)
                assert msg == WirePing(2)
                assert t.counters.connects == 2  # redialed after the reset
            finally:
                await t.aclose()

        run(main())


class TestBackpressure:
    def test_full_link_queue_refuses_the_send(self):
        async def main():
            t = WireTransport(delay=0.0,
                              wire_config=WireConfig(max_queue=1))
            t.attach(0)
            drops = []
            t.on_drop.append(lambda s, d, m, reason: drops.append(reason))
            await t.start()
            try:
                # Node 9 has no listener: the link dials forever, the
                # queue holds one frame, the second send must be refused
                # (bounded memory) with a typed drop reason.
                t.send(0, 9, GimmeMsg(0, 1, 1, 0, ()))
                t.send(0, 9, GimmeMsg(0, 2, 1, 0, ()))
                await wait_until(lambda: "backpressure" in drops)
                assert t.counters.backpressure_drops >= 1
            finally:
                await t.aclose()

        run(main())

    def test_wire_config_validates(self):
        with pytest.raises(WireError):
            WireConfig(max_queue=0)
        with pytest.raises(WireError):
            WireConfig(reconnect_base=0.5, reconnect_max=0.1)


class TestLateAttach:
    def test_frames_wait_for_a_late_listener(self):
        async def main():
            t = WireTransport(delay=0.0,
                              wire_config=WireConfig(reconnect_base=0.005))
            t.attach(0)
            await t.start()
            try:
                t.send(0, 7, token())   # nobody listening yet: link dials
                await asyncio.sleep(0.03)
                inbox7 = t.attach(7)    # late joiner binds its server
                src, msg = await asyncio.wait_for(inbox7.get(), timeout=10)
                assert src == 0 and isinstance(msg, TokenMsg)
                assert t.counters.connect_failures >= 0
            finally:
                await t.aclose()

        run(main())

    def test_port_stable_across_detach_reattach(self):
        async def main():
            t = WireTransport()
            t.attach(3)
            await t.start()
            try:
                before = t.port_of(3)
                t.detach(3)
                t.attach(3)
                await asyncio.sleep(0.02)
                assert t.port_of(3) == before  # peers keep their address
            finally:
                await t.aclose()

        run(main())


def _value(annotation, k):
    """A deterministic value of a message field's annotation, varied by
    ``k`` (small and 8-byte ints, empty and long tuples, None and not)."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:                      # Optional[T]
        inner = next(arg for arg in args if arg is not type(None))
        return None if k % 2 else _value(inner, k)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_value(args[0], k + i) for i in range(k % 4))
        return tuple(_value(arg, k + i) for i, arg in enumerate(args))
    if annotation is object:                        # DataFrame's payload
        return GimmeMsg(k, k + 1, 2, 3, (k,))
    return {int: k * 7919 - 16, bool: k % 2 == 0, float: k / 3,
            str: "\u00fc" * k}[annotation]


def one_of_each():
    """One message of every registered class."""
    msgs = []
    for k, cls in enumerate(registered_messages().values()):
        hints = typing.get_type_hints(cls)
        msgs.append(cls(*(_value(hints[f.name], k + i)
                          for i, f in enumerate(dataclasses.fields(cls)))))
    return msgs


class TestInboundFraming:
    """Inbound bytes are cut into frames where they are read."""

    def test_split_and_merged_writes_yield_the_same_frames(self):
        sent = [(n % 4, 1 + n % 2, msg) for n, msg in enumerate(one_of_each())]
        stream = b"".join(encode_frame(*item) for item in sent)

        async def receive(chunks):
            t = WireTransport(delay=0.0)
            t.attach(1)
            t.attach(2)
            got = []
            t.on_deliver.append(lambda src, dst, msg: got.append(
                (src, dst, msg)))
            await t.start()
            try:
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", t.port_of(1))
                for chunk in chunks:
                    writer.write(chunk)
                    await writer.drain()
                await wait_until(lambda: len(got) >= len(sent))
                writer.close()
            finally:
                await t.aclose()
            assert t.counters.codec_errors == 0
            assert t.counters.frames_received == len(sent)
            return got

        merged = run(receive([stream]))
        split = run(receive([stream[i:i + 1] for i in range(len(stream))]))
        assert merged == split == sent

    @pytest.mark.parametrize("attack, error", [
        (struct.pack("!I", 0), FrameError),                     # zero length
        (struct.pack("!I", 1025), FrameError),                  # > max_frame
        (struct.pack("!I", 3) + bytes((WIRE_VERSION + 1, 16, 17)),
         FrameError),                                           # version
        (struct.pack("!I", 5) + bytes((WIRE_VERSION,)) + b"junk",
         CodecError),                                           # garbage body
        (encode_frame(0, 1, WirePing(9))[:-2], None),           # truncated
    ], ids=["zero-length", "oversized", "wrong-version", "garbage-body",
            "truncated-then-close"])
    def test_a_bad_stream_closes_only_its_connection(self, attack, error):
        async def main():
            t = WireTransport(delay=0.0,
                              wire_config=WireConfig(max_frame=1024))
            inbox = t.attach(1)
            t.attach(0)
            await t.start()
            try:
                t.send(0, 1, WirePing(1))           # the link to keep
                assert (await asyncio.wait_for(inbox.get(), 5))[1] \
                    == WirePing(1)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", t.port_of(1))
                # A good frame ahead of the bad bytes is still delivered.
                writer.write(encode_frame(7, 1, WirePing(2)) + attack)
                if error is None:
                    writer.write_eof()              # gone mid-frame
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                writer.close()
                assert (await asyncio.wait_for(inbox.get(), 5)) \
                    == (7, WirePing(2))
                t.send(0, 1, WirePing(3))
                assert (await asyncio.wait_for(inbox.get(), 5)) \
                    == (0, WirePing(3))
                assert t.counters.connects == 1     # never redialed
                return t
            finally:
                await t.aclose()

        t = run(main())
        if error is None:
            assert t.counters.codec_errors == 0
            assert t.last_wire_error is None
        else:
            assert t.counters.codec_errors == 1
            assert type(t.last_wire_error) is error


class EchoCore(ProtocolCore):
    """Records what it handles; raises instead when ``boom`` is set."""

    protocol_name = "echo-test"

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.seen = []
        self.boom = False

    def on_start(self, now):
        return []

    def on_message(self, src, msg, now):
        self.seen.append(msg.n)
        if self.boom:
            raise RuntimeError("core bug")
        return []

    def on_timer(self, key, now):
        return []

    def on_request(self, now):
        return []


class TestRaisingHandler:
    def test_a_raising_core_kills_its_node_not_the_connection(self):
        async def main():
            t = WireTransport(delay=0.001)
            config = ProtocolConfig(n=3)
            drivers = [AioNodeDriver(t, EchoCore(node, config))
                       for node in range(3)]
            drivers[1].core.boom = True
            delivered = []
            t.on_deliver.append(lambda src, dst, msg: delivered.append(dst))
            await t.start()
            for driver in drivers:
                await driver.start()
            try:
                t.send(0, 1, WirePing(1))
                await wait_until(lambda: drivers[1].failure() is not None)
                for n in range(2, 6):
                    t.send(0, 1, WirePing(n))
                    t.send(0, 2, WirePing(n))
                    t.send(2, 0, WirePing(n))
                await wait_until(lambda: len(delivered) == 13)
                inbound = len(t._inbound)
            finally:
                for driver in drivers:
                    await driver.stop()
                await t.aclose()
            return t, drivers, inbound

        t, drivers, inbound = run(main())
        assert isinstance(drivers[1].failure(), RuntimeError)
        assert drivers[0].failure() is drivers[2].failure() is None
        # The dead node handled nothing more; its peers kept exchanging.
        assert drivers[1].core.seen == [1]
        assert drivers[0].core.seen == drivers[2].core.seen == [2, 3, 4, 5]
        # Frames 2-5 to the dead node crossed the connection the raise
        # happened on: it stayed open and was never redialed.
        assert inbound == 3
        assert t.counters.connects == 3
        assert t.counters.resets == t.counters.codec_errors == 0
