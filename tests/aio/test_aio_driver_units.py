"""Unit tests for the asyncio driver's effect interpretation (timers,
scaling, stop semantics)."""

import asyncio

import pytest

from repro.aio.driver import AioNodeDriver
from repro.aio.transport import AioTransport
from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import CancelTimer, Deliver, Effect, Send, SetTimer
from repro.errors import SimulationError


class Unknown(Effect):
    """An effect no driver knows."""


class TimerCore(ProtocolCore):
    """Minimal core exercising every effect type."""

    protocol_name = "timer-test"

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.fired = []

    def on_start(self, now):
        return [Deliver("started", ())]

    def on_message(self, src, msg, now):
        if msg == "arm":
            return [SetTimer("t", 3.0)]       # 3 message-delay units
        if msg == "arm-cancel":
            return [SetTimer("t", 3.0), CancelTimer("t")]
        if msg == "echo":
            return [Send(src, "echoed")]
        if msg == "unknown":
            return [Unknown()]
        return []

    def on_timer(self, key, now):
        self.fired.append(key)
        return [Deliver("fired", (key,))]

    def on_request(self, now):
        return []


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

    def test_unknown_effect_raises(self):
        async def main():
            transport, a, b = make_pair()
            await a.start()
            await b.start()
            transport.send(1, 0, "unknown")
            await asyncio.sleep(0.03)
            failure = a.failure()
            await a.stop()
            await b.stop()
            assert isinstance(failure, SimulationError)
            assert "unknown effect" in str(failure)

        run(main())

    def test_double_stop_is_safe(self):
        async def main():
            transport, a, b = make_pair()
            await a.start()
            await a.stop()
            await a.stop()
            await b.stop()

        run(main())
