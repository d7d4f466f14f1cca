"""Unit tests for the asyncio driver as its core's port (timers,
scaling, stop semantics)."""

import asyncio

import pytest

from repro.aio.driver import AioNodeDriver
from repro.aio.transport import AioTransport
from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import Send
from repro.errors import SimulationError


class TimerCore(ProtocolCore):
    """Minimal core exercising every port call."""

    protocol_name = "timer-test"

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.fired = []

    def on_start(self, now):
        self.out.deliver("started", ())

    def on_message(self, src, msg, now):
        if msg == "arm":
            self.out.timer("t", 3.0)          # 3 message-delay units
        elif msg == "arm-cancel":
            self.out.timer("t", 3.0)
            self.out.cancel("t")
        elif msg == "echo":
            self.out.send(src, "echoed")
        elif msg == "returns-effects":
            return [Send(src, "echoed")]

    def on_timer(self, key, now):
        self.fired.append(key)
        self.out.deliver("fired", (key,))

    def on_request(self, now):
        pass


def run(coro):
    return asyncio.run(coro)


def make_pair(delay=0.005):
    transport = AioTransport(delay=delay)
    config = ProtocolConfig(n=2)
    a = AioNodeDriver(transport, TimerCore(0, config))
    b = AioNodeDriver(transport, TimerCore(1, config))
    return transport, a, b


class TestAioDriver:
    def test_timer_scaled_to_transport_delay(self):
        async def main():
            transport, a, b = make_pair(delay=0.005)
            await a.start()
            await b.start()
            transport.send(1, 0, "arm")
            # 3 units * 0.005 = 0.015s (+ one 0.005 delivery delay)
            await asyncio.sleep(0.05)
            await a.stop()
            await b.stop()
            assert a.core.fired == ["t"]

        run(main())

    def test_cancel_timer(self):
        async def main():
            transport, a, b = make_pair()
            await a.start()
            await b.start()
            transport.send(1, 0, "arm-cancel")
            await asyncio.sleep(0.05)
            await a.stop()
            await b.stop()
            assert a.core.fired == []

        run(main())

    def test_send_effect_routes_through_transport(self):
        async def main():
            transport, a, b = make_pair()
            received = []
            b.subscribe(lambda *args: None)
            await a.start()
            await b.start()
            transport.send(1, 0, "echo")
            await asyncio.sleep(0.03)
            await a.stop()
            await b.stop()
            # The echo reached node 1's core (no crash = it was consumed).
            assert transport.sent_count == 2

        run(main())

    def test_deliver_reaches_subscribers(self):
        async def main():
            transport, a, b = make_pair()
            events = []
            a.subscribe(lambda node, kind, payload, now:
                        events.append((node, kind)))
            await a.start()
            await asyncio.sleep(0.01)
            await a.stop()
            await b.stop()
            assert (0, "started") in events

        run(main())

    def test_stop_cancels_pending_timers(self):
        async def main():
            transport, a, b = make_pair()
            await a.start()
            await b.start()
            transport.send(1, 0, "arm")
            await asyncio.sleep(0.01)   # message delivered, timer armed
            await a.stop()              # timer cancelled with the node
            await asyncio.sleep(0.05)
            await b.stop()
            assert a.core.fired == []

        run(main())

    def test_returned_effects_raise(self):
        async def main():
            transport, a, b = make_pair()
            await a.start()
            await b.start()
            transport.send(1, 0, "returns-effects")
            await asyncio.sleep(0.03)
            failure = a.failure()
            await a.stop()
            await b.stop()
            assert isinstance(failure, SimulationError)
            assert "acts through its port" in str(failure)
            assert transport.sent_count == 1     # nothing was sent

        run(main())

    def test_double_stop_is_safe(self):
        async def main():
            transport, a, b = make_pair()
            await a.start()
            await a.stop()
            await a.stop()
            await b.stop()

        run(main())
