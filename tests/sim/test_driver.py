"""Unit tests for the DES node driver's effect interpretation."""

import random

import pytest

from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import CancelTimer, Deliver, Effect, Send, SetTimer
from repro.errors import SimulationError
from repro.sim.driver import NodeDriver
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class Unknown(Effect):
    """An effect no driver knows."""


class EchoCore(ProtocolCore):
    """Test core: echoes messages back, exposes timers and deliveries."""

    protocol_name = "echo"

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.timer_fires = []
        self.messages = []

    def on_start(self, now):
        return [Deliver("started", (self.node_id,))]

    def on_message(self, src, msg, now):
        self.messages.append((src, msg))
        if msg == "ping":
            return [Send(src, "pong")]
        if msg == "arm":
            return [SetTimer("t", 2.0)]
        if msg == "rearm":
            return [SetTimer("t", 10.0)]
        if msg == "disarm":
            return [CancelTimer("t")]
        if msg == "unknown":
            return [Unknown()]
        return []

    def on_timer(self, key, now):
        self.timer_fires.append((key, now))
        return [Deliver("fired", (key,))]

    def on_request(self, now):
        return [Deliver("requested", (self.node_id,))]


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

    def test_unknown_effect_raises(self, rig):
        sim, net, drivers, events = rig
        net.send(1, 0, "unknown")
        with pytest.raises(SimulationError, match="unknown effect"):
            sim.run()

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
