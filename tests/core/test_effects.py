"""The port a core acts through: the recording port sans-IO tests read,
and the one emission rule both drivers share (``DriverPort``)."""

import pytest

from repro.core import RingCore
from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import (
    CancelTimer,
    Deliver,
    DriverPort,
    RecordingPort,
    Send,
    SetTimer,
    recorded,
)
from repro.core.messages import TokenMsg
from repro.errors import SimulationError


class ScriptCore(ProtocolCore):
    """Makes the port calls it receives as a message, in order."""

    protocol_name = "script"

    def on_message(self, src, msg, now):
        for name, *args in msg:
            if name == "raise":
                raise RuntimeError("core bug")
            if name == "return":
                return args
            getattr(self.out, name)(*args)


class _Handle:
    def __init__(self, log, key):
        self.log, self.key = log, key

    def cancel(self):
        self.log.append(("cancelled", self.key))


class LogDriver(DriverPort):
    """A driver whose runtime is a log of what reached it, in order."""

    def __init__(self, core):
        super().__init__(core)
        self.log = []

    def handle(self, *calls):
        self._apply("on_message", calls, self.core.on_message, 0, calls, 0.0)

    def _send(self, dst, msg):
        self.log.append(("send", dst, msg))

    def _schedule(self, key, delay):
        self.log.append(("timer", key, delay))
        return _Handle(self.log, key)

    def _now(self):
        return 0.0


def driver():
    return LogDriver(ScriptCore(0, ProtocolConfig(n=2)))


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
        d = driver()
        assert d.core.out is d


class TestDriverPort:
    def test_calls_act_at_once_until_a_delivery(self):
        d = driver()
        seen = []
        d.subscribe(lambda node, kind, payload, now: seen.append(list(d.log)))
        d.handle(("send", 1, "before"), ("timer", "t", 3.0),
                 ("deliver", "granted", (0,)), ("send", 1, "after"),
                 ("cancel", "t"))
        # The subscriber ran after the handler returned, in the
        # delivery's place: the calls made before it had acted, the ones
        # made after it had waited.
        assert seen == [[("send", 1, "before"), ("timer", "t", 3.0)]]
        assert d.log == [("send", 1, "before"), ("timer", "t", 3.0),
                         ("send", 1, "after"), ("cancelled", "t")]

    def test_a_subscriber_calling_back_in_runs_after_the_handler(self):
        d = driver()
        d.subscribe(lambda node, kind, payload, now:
                    d.handle(("send", 1, "nested")) if kind == "granted"
                    else None)
        d.handle(("deliver", "granted", (0,)), ("send", 1, "after"))
        assert d.log == [("send", 1, "nested"), ("send", 1, "after")]

    def test_rearming_a_timer_cancels_the_old_deadline(self):
        d = driver()
        d.handle(("timer", "t", 1.0))
        d.handle(("timer", "t", 2.0))
        assert d.log == [("timer", "t", 1.0), ("cancelled", "t"),
                         ("timer", "t", 2.0)]

    def test_a_raising_handler_leaves_nothing_waiting(self):
        d = driver()
        with pytest.raises(RuntimeError):
            d.handle(("deliver", "granted", (0,)), ("send", 1, "lost"),
                     ("raise",))
        d.handle(("send", 1, "next"))
        assert d.log == [("send", 1, "next")]

    def test_a_handler_that_returns_effects_raises(self):
        d = driver()
        with pytest.raises(SimulationError, match="acts through its port"):
            d.handle(("return", Send(1, "m")))
        assert d.log == []

