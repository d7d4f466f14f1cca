"""Exhaustive bounded verification of the paper's systems.

Unlike the random-reduction tests, these enumerate *every* reachable state
of small bounded instances and check the safety properties on each — a
complete verification up to the bound (``result.complete`` asserts the
frontier was exhausted, i.e. nothing was left unexplored).
"""

import pytest

from repro.errors import SpecError
from repro.specs import (
    system_binary_search as bs,
    system_message_passing as mp,
    system_s,
    system_s1,
    system_search as srch,
    system_token,
)
from repro.specs.modelcheck import (bound_data, bound_requests,
                                    bound_visits, explore, explore_graph)
from repro.specs.properties import prefix_property, token_uniqueness
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext


def build(make_rules_args, initial, data_limit, visit_limit=None,
          visit_rule="4", nodes=None):
    rules, init = make_rules_args, initial
    rules = bound_data(rules, data_limit, nodes=nodes)
    if visit_limit is not None:
        rules = bound_visits(rules, visit_limit, visit_rule)
    return Rewriter(rules, RuleContext()), init


class TestExhaustive:
    def test_system_s_complete(self):
        rw, init = build(system_s.make_rules(), system_s.initial_state(2), 2)
        result = explore(rw, init, [prefix_property])
        assert result.complete
        assert result.states > 10

    def test_system_s1_complete(self):
        rw, init = build(system_s1.make_rules(), system_s1.initial_state(2), 2)
        result = explore(rw, init, [prefix_property])
        assert result.complete
        assert result.states > 50

    def test_system_token_complete(self):
        rw, init = build(system_token.make_rules(2, ring=False),
                         system_token.initial_state(2), 2)
        result = explore(rw, init, [prefix_property])
        assert result.complete

    def test_system_token_ring_subset_of_free(self):
        free, init = build(system_token.make_rules(3, ring=False),
                           system_token.initial_state(3), 1)
        ring, _ = build(system_token.make_rules(3, ring=True),
                        system_token.initial_state(3), 1)
        free_states = explore(free, init, [prefix_property])
        ring_states = explore(ring, init, [prefix_property])
        assert ring_states.complete and free_states.complete
        assert ring_states.states <= free_states.states

    def test_system_mp_complete(self):
        rw, init = build(mp.make_rules(2, ring=False),
                         mp.initial_state(2), 1)
        result = explore(rw, init, [prefix_property, token_uniqueness])
        assert result.complete
        assert result.states > 30

    def test_system_mp_ring_complete(self):
        rw, init = build(mp.make_rules(3, ring=True), mp.initial_state(3), 1)
        result = explore(rw, init, [prefix_property, token_uniqueness],
                         max_states=60_000)
        assert result.complete

    def test_system_search_restricted_complete(self):
        # One requester (node 1), single-outstanding search: exhaustively
        # explores the ask / trap / hand-over machinery of the restricted
        # System Search.
        rules = srch.make_rules(3, restricted=True)
        rules = bound_data(rules, 1, nodes=(1,))
        rules = bound_requests(rules, "5")
        rw = Rewriter(rules, RuleContext())
        result = explore(rw, srch.initial_state(3),
                         [prefix_property, token_uniqueness],
                         max_states=60_000)
        assert result.complete
        assert result.states > 100

    def test_system_binary_search_bounded_complete(self):
        rules = bs.make_rules(2, restricted=True)
        rules = bound_data(rules, 1, nodes=(1,))
        rules = bound_requests(rules, "5")
        rules = bound_visits(rules, 6, "4")
        rw = Rewriter(rules, RuleContext())
        result = explore(rw, bs.initial_state(2),
                         [prefix_property, token_uniqueness],
                         max_states=60_000)
        assert result.complete
        assert result.states > 50

    def test_system_binary_search_n3(self):
        # One requester, single-outstanding search, two circulation hops:
        # the full gimme / trap / loan / return machinery on a 3-ring.
        rules = bs.make_rules(3, restricted=True)
        rules = bound_data(rules, 1, nodes=(2,))
        rules = bound_requests(rules, "5")
        rules = bound_visits(rules, 5, "4")
        rw = Rewriter(rules, RuleContext())
        result = explore(rw, bs.initial_state(3),
                         [prefix_property, token_uniqueness],
                         max_states=80_000)
        assert result.complete
        assert result.states > 200


class TestMachinery:
    def test_violation_is_reported_with_rule(self):
        rw, init = build(system_s.make_rules(), system_s.initial_state(2), 1)

        def bogus(state):
            from repro.specs.properties import components
            return len(components(state)["H"]) == 0  # breaks on broadcast

        with pytest.raises(SpecError) as err:
            explore(rw, init, [bogus], names=["empty-history"])
        assert "empty-history" in str(err.value)
        assert "rule" in str(err.value)

    def test_incomplete_flag_when_capped(self):
        rw, init = build(system_s1.make_rules(), system_s1.initial_state(3), 3)
        result = explore(rw, init, [prefix_property], max_states=20)
        assert not result.complete
        assert result.states == 20

    def test_complete_flag_boundary_on_system_s(self):
        # Regression: `complete` must be False whenever the cap could have
        # truncated exploration, and True only when the frontier was truly
        # exhausted below the cap.
        rw, init = build(system_s.make_rules(), system_s.initial_state(2), 2)
        full = explore(rw, init, [prefix_property])
        assert full.complete
        size = full.states

        tiny = explore(rw, init, [prefix_property], max_states=3)
        assert not tiny.complete
        assert tiny.states == 3

        # Cap exactly at the state-space size: the explorer cannot tell
        # whether the last admitted state had unexplored successors, so it
        # must stay conservative.
        exact = explore(rw, init, [prefix_property], max_states=size)
        assert exact.states == size
        assert not exact.complete

        # One above the size: the frontier drains with the cap unreached —
        # same states, now provably complete.
        generous = explore(rw, init, [prefix_property], max_states=size + 1)
        assert generous.states == size
        assert generous.complete
        assert generous.transitions == full.transitions

    def test_bound_data_limits_generation(self):
        rw, init = build(system_s.make_rules(), system_s.initial_state(1), 2)
        states = rw.reachable(init, max_states=1000)
        # pending data never exceeds the per-node bound
        from repro.specs.common import pending_of
        from repro.specs.properties import components
        for state in states:
            assert len(pending_of(components(state)["Q"], 0)) <= 2

    def test_bound_visits_limits_rotation(self):
        rules = bound_visits(bs.make_rules(2, restricted=True), 2, "4")
        rw = Rewriter(rules, RuleContext())
        states = rw.reachable(bs.initial_state(2), max_states=5000)
        from repro.specs.modelcheck import _count_visits
        assert all(_count_visits(s) <= 2 * 4 for s in states)


class TestGraphCountsPinned:
    """Exact state/transition counts of two bounded explorations, pinned
    as a behaviour checksum over the matcher/engine stack: any change to
    rule enumeration (a lost match, a duplicate successor) moves these
    numbers before it would surface anywhere else."""

    def test_system_token_n3_graph(self):
        rw, init = system_token.make_system(3)
        rules = bound_data(rw.ruleset, 1)
        graph = explore_graph(Rewriter(rules), init, max_states=20_000)
        assert graph.transitions == sum(
            len(succ) for succ in graph.edges.values())
        assert (len(graph.states), graph.transitions,
                graph.complete) == (492, 1764, True)

    def test_system_token_n4_graph(self):
        # Successive states differ in one component, so this size leans
        # on the matcher's partial-product cache under heavy sharing.
        rw, init = system_token.make_system(4)
        rules = bound_data(rw.ruleset, 1)
        graph = explore_graph(Rewriter(rules, rw.ctx), init)
        assert (len(graph.states), graph.transitions,
                graph.complete) == (11456, 53248, True)

    def test_binary_search_n3_graph(self):
        rw, init = bs.make_system(3)
        rules = bound_data(rw.ruleset, 1, nodes=[2])
        rules = bound_requests(rules, "5")
        rules = bound_visits(rules, 5, "4")
        graph = explore_graph(Rewriter(rules), init, max_states=20_000)
        assert graph.transitions == sum(
            len(succ) for succ in graph.edges.values())
        assert (len(graph.states), graph.transitions,
                graph.complete) == (250, 393, True)
