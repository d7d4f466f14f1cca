"""Unit tests for the DES node driver as its core's port."""

import random

import pytest

from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import Send
from repro.errors import SimulationError
from repro.sim.driver import NodeDriver
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class EchoCore(ProtocolCore):
    """Test core: echoes messages back, exposes timers and deliveries."""

    protocol_name = "echo"

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.timer_fires = []
        self.messages = []

    def on_start(self, now):
        self.out.deliver("started", (self.node_id,))

    def on_message(self, src, msg, now):
        self.messages.append((src, msg))
        if msg == "ping":
            self.out.send(src, "pong")
        elif msg == "arm":
            self.out.timer("t", 2.0)
        elif msg == "rearm":
            self.out.timer("t", 10.0)
        elif msg == "disarm":
            self.out.cancel("t")
        elif msg == "deliver-then-send":
            self.out.deliver("echoed", (msg,))
            self.out.send(src, "after")
        elif msg == "returns-effects":
            return [Send(src, "pong")]

    def on_timer(self, key, now):
        self.timer_fires.append((key, now))
        self.out.deliver("fired", (key,))

    def on_request(self, now):
        self.out.deliver("requested", (self.node_id,))

    def on_release(self, now):
        self.out.send(1 - self.node_id, "released")


@pytest.fixture()
def rig():
    sim = Simulator()
    net = Network(sim, random.Random(0))
    config = ProtocolConfig(n=2)
    drivers = [NodeDriver(sim, net, EchoCore(i, config)) for i in range(2)]
    events = []
    for d in drivers:
        d.subscribe(lambda node, kind, payload, now: events.append((node, kind)))
    return sim, net, drivers, events


class TestDriver:
    def test_start_delivers_event(self, rig):
        sim, net, drivers, events = rig
        drivers[0].start()
        assert (0, "started") in events

    def test_send_and_reply(self, rig):
        sim, net, drivers, events = rig
        net.send(1, 0, "ping")
        sim.run()
        assert drivers[0].core.messages == [(1, "ping")]
        assert drivers[1].core.messages == [(0, "pong")]

    def test_timer_fires_once(self, rig):
        sim, net, drivers, events = rig
        net.send(1, 0, "arm")
        sim.run()
        assert drivers[0].core.timer_fires == [("t", 3.0)]  # 1 delay + 2 timer

    def test_timer_rearm_replaces_deadline(self, rig):
        sim, net, drivers, events = rig
        net.send(1, 0, "arm")
        net.send(1, 0, "rearm")
        sim.run()
        # Only the re-armed deadline fires: 1 (delay) + 10.
        assert drivers[0].core.timer_fires == [("t", 11.0)]

    def test_cancel_timer(self, rig):
        sim, net, drivers, events = rig
        net.send(1, 0, "arm")
        net.send(1, 0, "disarm")
        sim.run()
        assert drivers[0].core.timer_fires == []

    def test_request_and_release_entry_points(self, rig):
        sim, net, drivers, events = rig
        drivers[0].request()
        assert (0, "requested") in events

    def test_returned_effects_raise(self, rig):
        """A core still written for effect lists fails loudly instead of
        having its effects dropped."""
        sim, net, drivers, events = rig
        net.send(1, 0, "returns-effects")
        with pytest.raises(SimulationError, match="acts through its port"):
            sim.run()

    def test_a_delivery_waits_for_its_handler_and_keeps_its_place(self, rig):
        """A subscriber that calls back into the driver runs after the
        handler returned, and a send issued after the delivery stays
        behind what the subscriber sent."""
        sim, net, drivers, events = rig
        sent = []
        net.on_send.append(lambda src, dst, msg: sent.append((src, msg)))
        inside = []

        def on_event(node, kind, payload, now):
            if kind == "echoed":
                inside.append(drivers[0]._held)
                drivers[0].release()

        drivers[0].subscribe(on_event)
        net.send(1, 0, "deliver-then-send")
        sim.run()
        assert inside == [None]   # not inside the handler any more
        assert sent == [(1, "deliver-then-send"), (0, "released"),
                        (0, "after")]

    def test_crash_stops_delivery_and_timers(self, rig):
        sim, net, drivers, events = rig
        net.send(1, 0, "arm")
        sim.run(until=1.5)
        drivers[0].crash()
        net.send(1, 0, "ping")
        sim.run()
        assert drivers[0].core.timer_fires == []
        assert ("ping" not in [m for _, m in drivers[0].core.messages])

    def test_crashed_request_ignored(self, rig):
        sim, net, drivers, events = rig
        drivers[0].crash()
        drivers[0].request()
        assert (0, "requested") not in events

    def test_recover_resumes_requests(self, rig):
        sim, net, drivers, events = rig
        drivers[0].crash()
        drivers[0].recover()
        drivers[0].request()
        assert (0, "requested") in events
