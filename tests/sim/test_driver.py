"""The node driver's contract as its core's port.  ``TestDriver`` runs on
the simulator and again, as ``TestDriverOnLoop``, on a virtual-time
event loop; the two differences the clock makes (timer units and what a
failing handler does) are each one test."""

import random

import pytest

from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import Send
from repro.errors import SimulationError
from repro.sim.driver import NodeDriver
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from tests.clocks import run


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
        elif msg == "arm-disarm":
            self.out.timer("t", 2.0)
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


def make_rig(clock, delay=1.0):
    net = Network(clock, random.Random(0), delay=delay)
    config = ProtocolConfig(n=2)
    drivers = [NodeDriver(clock, net, EchoCore(i, config)) for i in range(2)]
    events = []
    for d in drivers:
        d.subscribe(lambda node, kind, payload, now: events.append((node, kind)))
    return net, drivers, events


@pytest.fixture()
def rig(clock):
    return (clock,) + make_rig(clock)


class TestDriver:
    on_loop = False

    def test_start_delivers_event(self, rig):
        clock, net, drivers, events = rig
        drivers[0].start()
        assert (0, "started") in events

    def test_send_and_reply(self, rig):
        clock, net, drivers, events = rig
        net.send(1, 0, "ping")
        run(clock)
        assert drivers[0].core.messages == [(1, "ping")]
        assert drivers[1].core.messages == [(0, "pong")]
        assert net.sent_count == 2

    def test_timer_fires_once(self, rig):
        clock, net, drivers, events = rig
        net.send(1, 0, "arm")
        run(clock)
        assert drivers[0].core.timer_fires == [("t", 3.0)]  # 1 delay + 2 timer
        assert (0, "fired") in events

    def test_timer_units_follow_the_clock(self, clock):
        """Core timers count message delays: virtual units on the
        simulator, scaled by the network's delay on an event loop."""
        net, drivers, _ = make_rig(clock, delay=0.5)
        net.send(1, 0, "arm")
        run(clock)
        scale = 0.5 if self.on_loop else 1.0
        assert drivers[0].core.timer_fires == [("t", 0.5 + 2.0 * scale)]

    def test_timer_rearm_replaces_deadline(self, rig):
        clock, net, drivers, events = rig
        net.send(1, 0, "arm")
        net.send(1, 0, "rearm")
        run(clock)
        # Only the re-armed deadline fires: 1 (delay) + 10.
        assert drivers[0].core.timer_fires == [("t", 11.0)]

    def test_cancel_timer(self, rig):
        clock, net, drivers, events = rig
        net.send(1, 0, "arm")
        net.send(1, 0, "disarm")
        net.send(1, 1, "arm-disarm")
        run(clock)
        assert drivers[0].core.timer_fires == []
        assert drivers[1].core.timer_fires == []

    def test_request_and_release_entry_points(self, rig):
        clock, net, drivers, events = rig
        drivers[0].request()
        assert (0, "requested") in events
        drivers[0].release()
        run(clock)
        assert drivers[1].core.messages == [(0, "released")]

    def test_returned_effects_raise(self, rig):
        """A core still written for effect lists fails loudly instead of
        having its effects dropped — at the failing event on the
        simulator; on an event loop the node records the failure and
        handles nothing further."""
        clock, net, drivers, events = rig
        net.send(1, 0, "returns-effects")
        if not self.on_loop:
            with pytest.raises(SimulationError, match="acts through its port"):
                run(clock)
            assert drivers[0].failure() is None
            return
        run(clock)
        failure = drivers[0].failure()
        assert isinstance(failure, SimulationError)
        assert "acts through its port" in str(failure)
        assert net.sent_count == 1     # nothing was sent
        net.send(1, 0, "ping")
        run(clock)
        assert drivers[0].core.messages == [(1, "returns-effects")]
        drivers[0].stop()
        assert drivers[0].failure() is failure   # a stopped node keeps it

    def test_a_delivery_waits_for_its_handler_and_keeps_its_place(self, rig):
        """A subscriber that calls back into the driver runs after the
        handler returned, and a send issued after the delivery stays
        behind what the subscriber sent."""
        clock, net, drivers, events = rig
        sent = []
        net.on_send.append(lambda src, dst, msg: sent.append((src, msg)))
        inside = []

        def on_event(node, kind, payload, now):
            if kind == "echoed":
                inside.append(drivers[0]._held)
                drivers[0].release()

        drivers[0].subscribe(on_event)
        net.send(1, 0, "deliver-then-send")
        run(clock)
        assert inside == [None]   # not inside the handler any more
        assert sent == [(1, "deliver-then-send"), (0, "released"),
                        (0, "after")]

    def test_crash_stops_delivery_and_timers(self, rig):
        clock, net, drivers, events = rig
        net.send(1, 0, "arm")
        run(clock, until=1.5)
        drivers[0].crash()
        net.send(1, 0, "ping")
        run(clock)
        assert drivers[0].core.timer_fires == []
        assert ("ping" not in [m for _, m in drivers[0].core.messages])

    def test_crashed_request_ignored(self, rig):
        clock, net, drivers, events = rig
        drivers[0].crash()
        drivers[0].request()
        assert (0, "requested") not in events

    def test_recover_resumes_requests(self, rig):
        clock, net, drivers, events = rig
        drivers[0].crash()
        drivers[0].recover()
        drivers[0].request()
        assert (0, "requested") in events

    def test_stop_cancels_pending_timers(self, rig):
        clock, net, drivers, events = rig
        net.send(1, 0, "arm")
        run(clock, until=1.5)     # message delivered, timer armed
        drivers[0].stop()         # timer cancelled with the node
        net.send(1, 0, "ping")    # and the node is off the network
        run(clock)
        assert drivers[0].core.timer_fires == []
        assert drivers[0].core.messages == [(1, "arm")]
        assert net.dropped_count == 1

    def test_double_stop_is_safe(self, rig):
        clock, net, drivers, events = rig
        drivers[0].start()
        drivers[0].stop()
        drivers[0].stop()

    def test_the_clock_is_the_driver_s_time(self, rig):
        clock, net, drivers, events = rig
        stamps = []
        drivers[0].subscribe(lambda node, kind, payload, now: stamps.append(now))
        run(clock, until=4.0)
        drivers[0].request()
        assert stamps == [4.0] == [clock.time()]
        assert isinstance(clock, Simulator) is not self.on_loop


class TestDriverOnLoop(TestDriver):
    on_loop = True
