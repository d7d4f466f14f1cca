"""Cross-validation: the executable protocol's bounded-history machinery
(visit-stamp integers) is equivalent to the spec's full-history ``⊂_C``
comparison — the Section 4.4 round-counter optimization, machine-checked.

We drive System BinarySearch's rule 4 (circulation) through the TRS,
maintaining impl-style visit stamps in parallel, and assert that for every
pair of nodes the prefix order of projected histories coincides with the
integer order of stamps.  We then check that rule 6's direction choice on
the spec histories equals BinarySearchCore's choice on the stamps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BinarySearchCore
from repro.core.config import ProtocolConfig
from repro.core.messages import GimmeMsg
from repro.core.effects import Send
from repro.specs import system_binary_search as bs
from repro.specs.common import history_of, is_ring_prefix
from repro.specs.properties import components


def circulate(n, hops):
    """Run `hops` circulation steps of the TRS System BinarySearch,
    returning (local histories per node, impl visit stamps per node)."""
    rw, state = bs.make_system(n, holder=0)
    stamps = {x: -1 for x in range(n)}
    stamps[0] = 0
    clock = 0
    for _ in range(hops):
        for name in ("4", "2", "3"):
            applied = False
            for rule, binding in rw.instantiations(state):
                if rule.name == name:
                    nxt = rw.apply(state, rule, binding)
                    if nxt is not None:
                        if name == "3":
                            receiver = binding["x"].value
                            clock += 1
                            stamps[receiver] = clock
                        state = nxt
                        applied = True
                        break
            assert applied, f"rule {name} did not fire"
    comp = components(state)
    histories = {x: history_of(comp["P"], x) for x in range(n)}
    return histories, stamps


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=3, max_value=8),
       hops=st.integers(min_value=1, max_value=20))
def test_stamp_order_equals_history_prefix_order(n, hops):
    """Strict history order coincides with strict stamp order; the only
    non-strict case is the (last sender, current holder) pair, whose
    histories are equal while their stamps differ by exactly one — a tie
    in which either search direction reaches the token immediately."""
    histories, stamps = circulate(n, hops)
    visited = [x for x in range(n) if stamps[x] >= 0]
    for a in visited:
        for b in visited:
            a_pref_b = is_ring_prefix(histories[a], histories[b])
            b_pref_a = is_ring_prefix(histories[b], histories[a])
            if a_pref_b and b_pref_a:
                assert abs(stamps[a] - stamps[b]) <= 1, (
                    f"equal histories but distant stamps for {a},{b}"
                )
            elif a_pref_b:
                assert stamps[a] < stamps[b], (
                    f"n={n} hops={hops}: spec says {a} older than {b}, "
                    f"stamps say {stamps[a]} vs {stamps[b]}"
                )
            elif b_pref_a:
                assert stamps[b] < stamps[a]


@settings(max_examples=20, deadline=None)
@given(hops=st.integers(min_value=2, max_value=30),
       requester=st.integers(min_value=0, max_value=7),
       probed=st.integers(min_value=0, max_value=7),
       span=st.sampled_from([2, 4]))
def test_rule6_direction_matches_core(hops, requester, probed, span):
    """The spec's rule 6 direction (from full histories) and the core's
    direction (from stamps) coincide wherever both are defined."""
    n = 8
    if requester == probed:
        return
    histories, stamps = circulate(n, hops)

    # Compare only where the spec's comparison is strict: in the tie case
    # (equal histories) both directions are legitimate rule-6 outcomes.
    h, hz = histories[probed], histories[requester]
    h_pref = is_ring_prefix(h, hz)
    hz_pref = is_ring_prefix(hz, h)
    if h_pref and hz_pref:
        return
    spec_target = (probed - span // 2) % n if h_pref \
        else (probed + span // 2) % n

    # Core decision:
    core = BinarySearchCore(probed, ProtocolConfig(n=n),
                            initial_holder=(probed + 1) % n)
    core.last_visit = stamps[probed]
    msg = GimmeMsg(requester=requester, req_seq=1, span=span,
                   visit_stamp=stamps[requester])
    out = [e for e in core.on_message(requester, msg, 0.0)
           if isinstance(e, Send)]
    if not out:
        return  # absorbed (target collision); nothing to compare
    assert out[0].dst == spec_target
