"""The port a core acts through: the recording port sans-IO tests read,
and the one emission rule of the driver, run here on a simulator."""

import random

import pytest

from repro.core import RingCore
from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import (
    CancelTimer,
    Deliver,
    RecordingPort,
    Send,
    SetTimer,
    recorded,
)
from repro.core.messages import TokenMsg
from repro.errors import SimulationError
from repro.sim.driver import NodeDriver
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class ScriptCore(ProtocolCore):
    """Makes the port calls it receives as a message, in order."""

    protocol_name = "script"

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.fired = []

    def on_message(self, src, msg, now):
        for name, *args in msg:
            if name == "raise":
                raise RuntimeError("core bug")
            if name == "return":
                return args
            getattr(self.out, name)(*args)

    def on_timer(self, key, now):
        self.fired.append((key, now))


class Rig:
    """Node 0 runs a :class:`ScriptCore` under the real driver; ``sent``
    is what reached the network, in order."""

    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim, random.Random(0))
        self.net.attach(1, lambda src, msg: None)
        self.driver = NodeDriver(self.sim, self.net,
                                 ScriptCore(0, ProtocolConfig(n=2)))
        self.sent = []
        self.net.on_send.append(lambda src, dst, msg: self.sent.append(msg))

    def handle(self, *calls):
        """Deliver ``calls`` to node 0, as the network does."""
        self.driver._on_message(1, calls)

    def armed(self):
        return sorted(self.driver._timers)


class TestRecordingPort:
    def test_every_call_is_kept_as_its_record_in_order(self):
        port = RecordingPort()
        port.send(1, "m")
        port.timer("t", 2.0)
        port.deliver("granted", (0, 1))
        port.cancel("t")
        assert port.take() == [Send(1, "m"), SetTimer("t", 2.0),
                               Deliver("granted", (0, 1)), CancelTimer("t")]
        assert port.effects == []

    def test_recorded_returns_one_calls_effects(self):
        core = RingCore(0, ProtocolConfig(n=4))
        core.on_start(0.0)                  # recorded, never read
        assert core.out.effects             # the forward is still kept
        effects = recorded(core.on_message, 3, TokenMsg(clock=4, round_no=1),
                           4.0)
        assert [type(e) for e in effects] == [Deliver, Send]

    def test_a_driver_takes_the_port(self):
        driver = Rig().driver
        assert driver.core.out is driver


class TestDriverPort:
    def test_calls_act_at_once_until_a_delivery(self):
        rig = Rig()
        seen = []
        rig.driver.subscribe(lambda node, kind, payload, now:
                             seen.append((list(rig.sent), rig.armed())))
        rig.handle(("send", 1, "before"), ("timer", "t", 3.0),
                   ("deliver", "granted", (0,)), ("send", 1, "after"),
                   ("cancel", "t"))
        # The subscriber ran after the handler returned, in the
        # delivery's place: the calls made before it had acted, the ones
        # made after it had waited.
        assert seen == [(["before"], ["t"])]
        assert rig.sent == ["before", "after"]
        assert rig.armed() == []

    def test_a_subscriber_calling_back_in_runs_after_the_handler(self):
        rig = Rig()
        rig.driver.subscribe(lambda node, kind, payload, now:
                             rig.handle(("send", 1, "nested"))
                             if kind == "granted" else None)
        rig.handle(("deliver", "granted", (0,)), ("send", 1, "after"))
        assert rig.sent == ["nested", "after"]

    def test_rearming_a_timer_cancels_the_old_deadline(self):
        rig = Rig()
        rig.handle(("timer", "t", 1.0))
        rig.handle(("timer", "t", 2.0))
        rig.sim.run()
        assert rig.driver.core.fired == [("t", 2.0)]

    def test_a_raising_handler_leaves_nothing_waiting(self):
        rig = Rig()
        with pytest.raises(RuntimeError):
            rig.handle(("deliver", "granted", (0,)), ("send", 1, "lost"),
                       ("raise",))
        rig.handle(("send", 1, "next"))
        assert rig.sent == ["next"]

    def test_a_handler_that_returns_effects_raises(self):
        rig = Rig()
        with pytest.raises(SimulationError, match="acts through its port"):
            rig.handle(("return", Send(1, "m")))
        assert rig.sent == []
