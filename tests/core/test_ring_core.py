"""Sans-IO unit tests for RingCore (the ``ring`` row): the effects are
inspected directly, no scheduler involved."""

import pytest

from repro.core import RingCore
from repro.core.config import ProtocolConfig
from repro.core.effects import CancelTimer, Deliver, Send, SetTimer, recorded
from repro.core.messages import TokenMsg
from repro.errors import ProtocolError


def cfg(**kwargs):
    return ProtocolConfig(n=kwargs.pop("n", 4), **kwargs)


def kinds(effects):
    return [type(e).__name__ for e in effects]


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


class TestRotation:
    def test_initial_holder_forwards_on_start(self):
        core = RingCore(0, cfg())
        effects = recorded(core.on_start, 0.0)
        out = sends(effects)
        assert len(out) == 1
        assert out[0].dst == 1
        assert isinstance(out[0].msg, TokenMsg)
        assert out[0].msg.clock == 1

    def test_non_holder_start_is_silent(self):
        assert recorded(RingCore(2, cfg()).on_start, 0.0) == []

    def test_token_passes_clockwise(self):
        core = RingCore(1, cfg())
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        assert sends(effects)[0].dst == 2

    def test_round_increments_when_wrapping(self):
        core = RingCore(3, cfg())
        effects = recorded(core.on_message, 2, TokenMsg(clock=3, round_no=0), 3.0)
        assert sends(effects)[0].msg.round_no == 1

    def test_duplicate_token_detected(self):
        core = RingCore(0, cfg())
        core.on_start(0.0)
        core.has_token = True
        with pytest.raises(ProtocolError):
            core.on_message(3, TokenMsg(clock=4, round_no=1), 4.0)

    def test_single_node_keeps_token(self):
        core = RingCore(0, ProtocolConfig(n=1))
        effects = recorded(core.on_start, 0.0)
        assert sends(effects) == []
        assert core.has_token

    def test_visit_event_delivered(self):
        core = RingCore(1, cfg())
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        visits = [e for e in effects
                  if isinstance(e, Deliver) and e.kind == "token_visit"]
        assert visits == [Deliver("token_visit", (1, 1))]


class TestRequests:
    def test_request_served_on_token_arrival(self):
        core = RingCore(1, cfg())
        core.on_request(0.0)
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        grants = [e for e in effects
                  if isinstance(e, Deliver) and e.kind == "granted"]
        assert grants == [Deliver("granted", (1, 1))]
        assert not core.ready

    def test_request_while_holding_serves_immediately(self):
        core = RingCore(0, cfg(idle_pause=5.0))
        effects = recorded(core.on_start, 0.0)
        assert any(isinstance(e, SetTimer) for e in effects)  # parked
        effects = recorded(core.on_request, 1.0)
        assert any(isinstance(e, CancelTimer) for e in effects)
        assert any(isinstance(e, Deliver) and e.kind == "granted"
                   for e in effects)

    def test_request_without_token_is_patient(self):
        core = RingCore(2, cfg())
        assert recorded(core.on_request, 0.0) == []
        assert core.ready

    def test_req_seq_increments(self):
        core = RingCore(2, cfg())
        core.on_request(0.0)
        core.on_message(1, TokenMsg(clock=1, round_no=0), 1.0)
        core.on_request(2.0)
        assert core.req_seq == 2

    def test_grant_is_not_recorded_on_the_token(self):
        # No trap exists anywhere on a ring, so there is nothing for a
        # served carry to retire: the token travels bare.
        core = RingCore(1, cfg())
        core.on_request(0.0)
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        assert Deliver("granted", (1, 1)) in effects
        assert [e.msg.served for e in sends(effects)] == [()]


class TestHoldAndService:
    def test_hold_until_release_blocks_forwarding(self):
        core = RingCore(1, cfg(hold_until_release=True))
        core.on_request(0.0)
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        assert sends(effects) == []  # token held
        released = recorded(core.on_release, 2.0)
        assert sends(released)[0].dst == 2
        assert any(isinstance(e, Deliver) and e.kind == "released"
                   for e in released)

    def test_release_without_grant_is_noop(self):
        core = RingCore(1, cfg(hold_until_release=True))
        assert recorded(core.on_release, 0.0) == []

    def test_service_time_uses_timer(self):
        core = RingCore(1, cfg(service_time=3.0))
        core.on_request(0.0)
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        timers = [e for e in effects if isinstance(e, SetTimer)]
        assert timers and timers[0].delay == 3.0
        done = recorded(core.on_timer, timers[0].key, 4.0)
        assert sends(done)[0].dst == 2


class TestAdaptiveSpeed:
    def test_idle_pause_parks_token(self):
        core = RingCore(1, cfg(idle_pause=4.0))
        effects = recorded(core.on_message, 0, TokenMsg(clock=1, round_no=0), 1.0)
        assert sends(effects) == []
        timers = [e for e in effects if isinstance(e, SetTimer)]
        assert timers[0].delay == 4.0

    def test_park_timer_forwards(self):
        core = RingCore(1, cfg(idle_pause=4.0))
        core.on_message(0, TokenMsg(clock=1, round_no=0), 1.0)
        effects = recorded(core.on_timer, "forward", 5.0)
        assert sends(effects)[0].dst == 2
        assert not core.has_token

    def test_serving_a_local_request_re_parks(self):
        # Rule 3' has no remote-demand signal: a request of our own says
        # nothing about the rest of the ring, so the pause still applies.
        core = RingCore(0, cfg(idle_pause=4.0))
        core.on_start(0.0)
        effects = recorded(core.on_request, 1.0)
        assert Deliver("granted", (0, 1)) in effects
        assert sends(effects) == []
        assert [e.delay for e in effects if isinstance(e, SetTimer)] == [4.0]
        assert core.has_token

    def test_stale_forward_timer_ignored(self):
        core = RingCore(1, cfg(idle_pause=4.0))
        assert recorded(core.on_timer, "forward", 5.0) == []

    def test_unexpected_message_raises(self):
        core = RingCore(1, cfg())
        with pytest.raises(ProtocolError):
            core.on_message(0, "garbage", 0.0)
