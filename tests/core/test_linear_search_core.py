"""Sans-IO unit tests for the ``linear_search`` row (System Search with the
Lemma 5 ring restriction): the ask relay, the direct hand-over and the
clock-expiry trap GC, effect by effect.  The core is taken from the
registry, so the tests hold however the row is built."""

from repro.core.config import GC_NONE, GC_ROTATION, ProtocolConfig
from repro.core.effects import Deliver, Send
from repro.core.messages import AskMsg, TokenMsg
from repro.core.protocols import REGISTRY

LinearSearchCore = REGISTRY["linear_search"]


def cfg(**kwargs):
    return ProtocolConfig(n=kwargs.pop("n", 6), **kwargs)


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


def trapped(core):
    return [(t.requester, t.req_seq) for t in core.traps]


class TestAsk:
    def test_ask_goes_to_the_successor_with_the_visit_stamp(self):
        core = LinearSearchCore(2, cfg())
        core.last_visit = 7
        out = sends(core.on_request(0.0))
        assert out == [Send(3, AskMsg(requester=2, req_seq=1, visit_stamp=7))]
        assert core.outstanding

    def test_relay_lays_a_trap_and_forwards(self):
        core = LinearSearchCore(3, cfg())
        ask = AskMsg(requester=1, req_seq=4, visit_stamp=2)
        assert core.on_message(2, ask, 1.0) == [Send(4, ask)]
        assert trapped(core) == [(1, 4)]

    def test_last_relay_before_the_requester_traps_but_stops(self):
        core = LinearSearchCore(1, cfg())
        ask = AskMsg(requester=2, req_seq=4, visit_stamp=2)
        assert core.on_message(0, ask, 1.0) == []
        assert trapped(core) == [(2, 4)]

    def test_second_request_under_single_outstanding_sends_no_ask(self):
        core = LinearSearchCore(2, cfg(single_outstanding=True))
        assert len(sends(core.on_request(0.0))) == 1
        assert core.on_request(1.0) == []
        assert core.req_seq == 2

    def test_without_the_throttle_every_request_asks(self):
        core = LinearSearchCore(2, cfg(single_outstanding=False))
        core.on_request(0.0)
        out = sends(core.on_request(1.0))
        assert [e.msg.req_seq for e in out] == [2]


class TestDirectHandOver:
    def test_holder_sends_the_token_itself_to_the_requester(self):
        core = LinearSearchCore(4, cfg())
        core.traps.add(1, 3, 8)
        out = sends(core.on_message(3, TokenMsg(clock=9, round_no=1), 9.0))
        assert len(out) == 1 and out[0].dst == 1
        msg = out[0].msg
        # Rule 7 undecorated: the token, not a loan, and not a circulation
        # hop — the clock is the one it arrived with.
        assert type(msg) is TokenMsg
        assert (msg.clock, msg.round_no, msg.served) == (9, 1, ())
        assert not core.has_token
        assert trapped(core) == []

    def test_own_trap_is_skipped(self):
        core = LinearSearchCore(4, cfg())
        core.traps.add(4, 1, 8)  # fresh: the GC does not take it
        out = sends(core.on_message(3, TokenMsg(clock=9, round_no=1), 9.0))
        assert [(e.dst, e.msg.clock) for e in out] == [(5, 10)]
        assert trapped(core) == []

    def test_ask_reaching_the_holder_is_served_at_once(self):
        core = LinearSearchCore(0, cfg(idle_pause=5.0))
        core.on_start(0.0)  # parks
        effects = core.on_message(5, AskMsg(requester=3, req_seq=1,
                                            visit_stamp=-1), 1.0)
        out = sends(effects)
        assert [(e.dst, type(e.msg)) for e in out] == [(3, TokenMsg)]
        assert out[0].msg.clock == 0

    def test_grant_leaves_no_served_carry_on_the_token(self):
        core = LinearSearchCore(1, cfg(trap_gc=GC_ROTATION))
        core.on_request(0.0)
        effects = core.on_message(0, TokenMsg(clock=1, round_no=0), 1.0)
        assert Deliver("granted", (1, 1)) in effects
        assert [e.msg.served for e in sends(effects)] == [()]


class TestTrapGc:
    def stale_trap_on_arrival(self, trap_gc):
        core = LinearSearchCore(4, cfg(trap_gc=trap_gc))
        core.traps.add(1, 3, 2)  # set at clock 2; n = 6
        return sends(core.on_message(3, TokenMsg(clock=8, round_no=1), 8.0))

    def test_rotation_expires_a_trap_a_full_circulation_old(self):
        out = self.stale_trap_on_arrival(GC_ROTATION)
        assert [(e.dst, e.msg.clock) for e in out] == [(5, 9)]

    def test_none_keeps_it_and_hands_the_token_over(self):
        out = self.stale_trap_on_arrival(GC_NONE)
        assert [(e.dst, e.msg.clock) for e in out] == [(1, 8)]
