"""Sans-IO unit tests for BinarySearchCore — rule-by-rule behaviour of the
adaptive protocol: search launch/forwarding/direction, traps, loans,
returns, GC policies, and throttling."""

import pytest

from repro.core import BinarySearchCore
from repro.core.config import GC_INVERSE, GC_NONE, GC_ROTATION, ProtocolConfig
from repro.core.effects import Deliver, Send, SetTimer
from repro.core.messages import GimmeMsg, LoanMsg, LoanReturnMsg, TokenMsg
from repro.errors import ProtocolError


def cfg(**kwargs):
    return ProtocolConfig(n=kwargs.pop("n", 8), **kwargs)


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


def grants(effects):
    return [e for e in effects
            if isinstance(e, Deliver) and e.kind == "granted"]


class TestSearchLaunch:
    def test_request_launches_gimme_across(self):
        core = BinarySearchCore(2, cfg(n=8))
        effects = core.on_request(0.0)
        out = sends(effects)
        assert len(out) == 1
        assert out[0].dst == 6                 # 2 + 8//2
        msg = out[0].msg
        assert isinstance(msg, GimmeMsg)
        assert msg.span == 4
        assert msg.requester == 2
        assert msg.trail == (2,)

    def test_holder_serves_itself_without_search(self):
        core = BinarySearchCore(0, cfg())
        core.on_start(0.0)
        core.has_token = True  # single-step: re-hold after start forwarding
        core.lent_to = None
        effects = core.on_request(1.0)
        assert grants(effects)
        assert sends(effects) == [] or not isinstance(sends(effects)[0].msg, GimmeMsg)

    def test_single_outstanding_throttle(self):
        core = BinarySearchCore(2, cfg(single_outstanding=True))
        first = core.on_request(0.0)
        assert sends(first)
        # The request stands; no second gimme while one is in flight.
        core.ready = True
        second = core._launch_search()
        assert second == []

    def test_throttle_off_allows_more_searches(self):
        core = BinarySearchCore(2, cfg(single_outstanding=False))
        core.on_request(0.0)
        again = core._launch_search()
        assert sends(again)

    def test_n1_never_searches(self):
        core = BinarySearchCore(0, ProtocolConfig(n=1))
        core.has_token = True
        effects = core.on_request(0.0)
        assert grants(effects)

    def test_retry_timer_armed_when_configured(self):
        core = BinarySearchCore(2, cfg(retry_timeout=30.0))
        effects = core.on_request(0.0)
        timers = [e for e in effects if isinstance(e, SetTimer)]
        assert timers and timers[0].delay == 30.0

    def test_retry_reissues_search(self):
        core = BinarySearchCore(2, cfg(retry_timeout=30.0))
        core.on_request(0.0)
        effects = core.on_timer(("retry", 1), 30.0)
        assert any(isinstance(s.msg, GimmeMsg) for s in sends(effects))

    def test_stale_retry_ignored(self):
        core = BinarySearchCore(2, cfg(retry_timeout=30.0))
        core.on_request(0.0)
        core.ready = False  # served in the meantime
        assert core.on_timer(("retry", 1), 30.0) == []


class TestGimmeForwarding:
    def make_visited(self, node, last_visit, n=8):
        core = BinarySearchCore(node, cfg(n=n))
        core.last_visit = last_visit
        return core

    def test_stale_node_forwards_counter_clockwise(self):
        # Rule 6 / Figure 8(a): our history older than the requester's.
        core = self.make_visited(4, last_visit=10)
        msg = GimmeMsg(requester=0, req_seq=1, span=4, visit_stamp=20)
        out = sends(core.on_message(0, msg, 0.0))
        assert out[0].dst == 2                  # 4 - 4//2
        assert out[0].msg.span == 2

    def test_fresh_node_forwards_clockwise(self):
        # Figure 8(b): we saw the token after the requester.
        core = self.make_visited(4, last_visit=30)
        msg = GimmeMsg(requester=0, req_seq=1, span=4, visit_stamp=20)
        out = sends(core.on_message(0, msg, 0.0))
        assert out[0].dst == 6                  # 4 + 4//2

    def test_equal_stamps_go_clockwise(self):
        core = self.make_visited(4, last_visit=20)
        msg = GimmeMsg(requester=0, req_seq=1, span=4, visit_stamp=20)
        out = sends(core.on_message(0, msg, 0.0))
        assert out[0].dst == 6

    def test_trap_laid_with_requester_stamp(self):
        core = self.make_visited(4, last_visit=10)
        msg = GimmeMsg(requester=0, req_seq=1, span=4, visit_stamp=20)
        core.on_message(0, msg, 0.0)
        trap = core.traps.peek()
        assert trap.requester == 0
        assert trap.set_clock == 20

    def test_span_one_absorbs(self):
        core = self.make_visited(4, last_visit=10)
        msg = GimmeMsg(requester=0, req_seq=1, span=1, visit_stamp=20)
        assert sends(core.on_message(0, msg, 0.0)) == []
        assert len(core.traps) == 1

    def test_own_search_absorbed(self):
        core = self.make_visited(4, last_visit=10)
        msg = GimmeMsg(requester=4, req_seq=1, span=4, visit_stamp=10)
        assert core.on_message(4, msg, 0.0) == []
        assert len(core.traps) == 0

    def test_trail_extends_at_each_hop(self):
        core = self.make_visited(4, last_visit=10)
        msg = GimmeMsg(requester=0, req_seq=1, span=4, visit_stamp=20,
                       trail=(0,))
        out = sends(core.on_message(0, msg, 0.0))
        assert out[0].msg.trail == (0, 4)

    def test_served_request_not_forwarded(self):
        core = self.make_visited(4, last_visit=10)
        core._served_carry = ((0, 1),)
        core.config.trap_gc = GC_ROTATION
        msg = GimmeMsg(requester=0, req_seq=1, span=4, visit_stamp=20)
        assert core.on_message(0, msg, 0.0) == []


class TestHolderAndLoans:
    def holder(self, node=0, n=8, **kw):
        core = BinarySearchCore(node, cfg(n=n, **kw))
        core.has_token = True
        core.clock = 5
        core.last_visit = 5
        return core

    def test_gimme_at_holder_triggers_loan(self):
        core = self.holder()
        msg = GimmeMsg(requester=3, req_seq=1, span=4, visit_stamp=2)
        out = sends(core.on_message(3, msg, 0.0))
        assert len(out) == 1
        loan = out[0].msg
        assert isinstance(loan, LoanMsg)
        assert out[0].dst == 3
        assert loan.requester == 3
        assert core.lent_to == 3
        assert not core.has_token

    def test_loan_grants_and_returns(self):
        core = BinarySearchCore(3, cfg())
        core.on_request(0.0)
        loan = LoanMsg(clock=9, round_no=1, lender=0, requester=3, req_seq=1)
        effects = core.on_message(0, loan, 1.0)
        assert grants(effects)
        returns = [s for s in sends(effects)
                   if isinstance(s.msg, LoanReturnMsg)]
        assert returns and returns[0].dst == 0
        assert core.last_visit == 9

    def test_stale_loan_bounced_straight_back(self):
        core = BinarySearchCore(3, cfg())
        loan = LoanMsg(clock=9, round_no=1, lender=0, requester=3, req_seq=1)
        effects = core.on_message(0, loan, 1.0)
        assert not grants(effects)
        assert isinstance(sends(effects)[0].msg, LoanReturnMsg)

    def test_loan_return_resumes_rotation(self):
        core = self.holder()
        core.on_message(3, GimmeMsg(requester=3, req_seq=1, span=4,
                                    visit_stamp=2), 0.0)
        effects = core.on_message(3, LoanReturnMsg(clock=5, round_no=0), 2.0)
        out = sends(effects)
        assert isinstance(out[0].msg, TokenMsg)
        assert out[0].dst == 1
        assert core.has_token is False
        assert core.lent_to is None

    def test_unexpected_loan_return_raises(self):
        core = self.holder()
        with pytest.raises(ProtocolError):
            core.on_message(3, LoanReturnMsg(clock=5, round_no=0), 2.0)

    def test_fifo_service_of_multiple_traps(self):
        core = self.holder()
        core.on_message(3, GimmeMsg(requester=3, req_seq=1, span=4,
                                    visit_stamp=2), 0.0)
        core.on_message(6, GimmeMsg(requester=6, req_seq=1, span=4,
                                    visit_stamp=2), 0.1)
        # First loan went to 3; after the return, 6 is next.
        effects = core.on_message(3, LoanReturnMsg(clock=5, round_no=0), 2.0)
        out = sends(effects)
        assert isinstance(out[0].msg, LoanMsg)
        assert out[0].dst == 6

    def test_second_token_rejected(self):
        core = self.holder()
        with pytest.raises(ProtocolError):
            core.on_message(7, TokenMsg(clock=9, round_no=1), 1.0)

    def test_token_while_lent_rejected(self):
        core = self.holder()
        core.on_message(3, GimmeMsg(requester=3, req_seq=1, span=4,
                                    visit_stamp=2), 0.0)
        with pytest.raises(ProtocolError):
            core.on_message(7, TokenMsg(clock=9, round_no=1), 1.0)


class TestTrapGc:
    def test_rotation_gc_expires_old_traps(self):
        core = BinarySearchCore(1, cfg(trap_gc=GC_ROTATION))
        core.traps.add(3, 1, set_clock=0)
        core.on_message(7, TokenMsg(clock=9, round_no=1), 1.0)
        assert len(core.traps) == 0  # 9 - 0 >= 8

    def test_none_gc_keeps_old_traps(self):
        core = BinarySearchCore(1, cfg(trap_gc=GC_NONE))
        core.traps.add(3, 1, set_clock=0)
        effects = core.on_message(7, TokenMsg(clock=9, round_no=1), 1.0)
        # Old trap fires a (dummy) loan instead of being collected.
        assert any(isinstance(s.msg, LoanMsg) for s in sends(effects))

    def test_served_piggyback_drops_matching_traps(self):
        core = BinarySearchCore(1, cfg(trap_gc=GC_ROTATION))
        core.traps.add(3, 1, set_clock=8)
        core.on_message(7, TokenMsg(clock=9, round_no=1,
                                    served=((3, 1),)), 1.0)
        assert len(core.traps) == 0

    def test_inverse_gc_routes_loan_along_trail(self):
        core = BinarySearchCore(0, cfg(trap_gc=GC_INVERSE))
        core.has_token = True
        core.clock = core.last_visit = 5
        msg = GimmeMsg(requester=3, req_seq=1, span=2, visit_stamp=2,
                       trail=(3, 7, 5))
        out = sends(core.on_message(5, msg, 0.0))
        loan = out[0].msg
        assert out[0].dst == 5          # first hop back along the trail
        assert loan.trail == (7,)       # then 7, then the requester

    def test_inverse_relay_clears_trap_and_forwards(self):
        relay = BinarySearchCore(7, cfg(trap_gc=GC_INVERSE))
        relay.traps.add(3, 1, set_clock=2)
        loan = LoanMsg(clock=5, round_no=0, lender=0, requester=3,
                       req_seq=1, trail=())
        out = sends(relay.on_message(5, loan, 0.0))
        assert len(relay.traps) == 0
        assert out[0].dst == 3
        assert out[0].msg.trail == ()

    def test_record_served_bounded(self):
        core = BinarySearchCore(0, cfg(trap_gc=GC_ROTATION,
                                       served_piggyback=2))
        for z in (1, 2, 3):
            core._record_served(z, 1)
        assert len(core._served_carry) == 2

    def test_merging_its_own_result_back_changes_nothing(self):
        core = BinarySearchCore(0, cfg(n=100, trap_gc=GC_ROTATION))
        core._served_carry = ((40, 2), (7, 1))
        core._merge_served(((9, 4), (7, 3)))
        merged = core._served_carry
        assert merged == ((7, 3), (9, 4), (40, 2))
        core._merge_served(tuple(merged))          # equal, not identical
        assert core._served_carry is merged

    def test_a_recorded_carry_coming_back_is_still_sorted(self):
        # _record_served appends, so its carry is not in merge order: the
        # shortcut for a merge's own result must not take it.
        core = BinarySearchCore(0, cfg(n=100, trap_gc=GC_ROTATION))
        core._record_served(5, 1)
        core._record_served(2, 1)
        assert core._served_carry == ((5, 1), (2, 1))
        core._merge_served(((5, 1), (2, 1)))
        assert core._served_carry == ((2, 1), (5, 1))

    @pytest.mark.xfail(strict=True, reason=(
        "_merge_served trims the merged carry to the highest node ids, not "
        "the most recent serves; fixing it moves the ledger's pinned check "
        "point, the golden rows, the corpus digests and the compiled twin"))
    def test_a_merge_keeps_the_most_recent_serve(self):
        carry = tuple((z, 1) for z in range(90, 98))
        server = BinarySearchCore(3, cfg(n=100, trap_gc=GC_ROTATION))
        server._served_carry = carry
        server._record_served(3, 5)                # evicts (90, 1)
        assert server._served_carry == carry[1:] + ((3, 5),)
        peer = BinarySearchCore(50, cfg(n=100, trap_gc=GC_ROTATION))
        peer._served_carry = carry
        peer._merge_served(server._served_carry)
        assert (3, 5) in peer._served_carry        # today: dropped ...
        assert (90, 1) not in peer._served_carry   # ... and (90, 1) is back
