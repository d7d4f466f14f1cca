"""DPOR equivalence and reduction guarantees (repro.verify.dpor)."""

import pytest

from repro.errors import VerifyError
from repro.specs import system_binary_search as bs
from repro.specs.modelcheck import (bound_data, bound_requests, bound_visits,
                                    explore_graph)
from repro.specs.properties import (prefix_property, search_direction_sound,
                                    token_uniqueness)
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext
from repro.verify.dpor import explore_dpor, validate_dpor
from repro.verify.independence import IndependenceRelation
from repro.verify.systems import SYSTEMS

ALL_SYSTEMS = sorted(SYSTEMS)


def _setup(key, n=3):
    system = SYSTEMS[key]
    rules = system.bounded(n)
    return system, Rewriter(rules, RuleContext()), system.initial(n)


def _applicable_checks(system):
    table = {"prefix-property": prefix_property,
             "token-uniqueness": token_uniqueness,
             "search-direction": search_direction_sound}
    return {name: table[name] for name in system.properties}


class TestSleepModeExactness:
    """Sleep-set DPOR must visit the *identical* reachable-state set —
    the correctness contract the cutoff certifier relies on."""

    @pytest.mark.parametrize("key", ALL_SYSTEMS)
    def test_same_state_set_as_full_exploration(self, key):
        system, rewriter, initial = _setup(key)
        graph = explore_graph(rewriter, initial, max_states=50_000)
        assert graph.complete
        reduced = explore_dpor(rewriter, initial, mode="sleep",
                               max_states=50_000)
        assert reduced.complete
        assert reduced.state_set == frozenset(graph.states)
        assert reduced.executed <= graph.transitions

    @pytest.mark.parametrize("key", ALL_SYSTEMS)
    def test_identical_property_verdicts(self, key):
        system, rewriter, initial = _setup(key)
        graph = explore_graph(rewriter, initial, max_states=50_000)
        reduced = explore_dpor(rewriter, initial, mode="sleep",
                               max_states=50_000)
        for name, check in _applicable_checks(system).items():
            full_verdict = all(check(s) for s in graph.states)
            dpor_verdict = all(check(s) for s in reduced.state_set)
            assert full_verdict == dpor_verdict, name

    def test_validate_dpor_reports_exact(self):
        _, rewriter, initial = _setup("binary_search")
        report = validate_dpor(rewriter, initial, max_states=50_000)
        assert report["exact"]
        assert report["missing"] == 0 and report["extra"] == 0


class TestPersistentModeReduction:
    def test_binary_search_n4_speedup_at_least_5x(self):
        # The acceptance configuration: BS at n=4, fresh data at nodes
        # 1-2, single-outstanding requests, 4 ring hops.  Persistent-set
        # DPOR must execute >= 5x fewer transitions than full BFS while
        # remaining complete, a state-subset, and property-clean.
        rules = bs.make_rules(4, restricted=True)
        rules = bound_data(rules, 1, nodes=(1, 2))
        rules = bound_requests(rules, "5")
        rules = bound_visits(rules, 4, "4")
        initial = bs.initial_state(4)
        rewriter = Rewriter(rules, RuleContext())
        graph = explore_graph(rewriter, initial, max_states=100_000)
        assert graph.complete
        relation = IndependenceRelation(rules)
        reduced = explore_dpor(rewriter, initial, mode="persistent",
                               max_states=100_000, relation=relation)
        assert reduced.complete
        assert reduced.state_set <= frozenset(graph.states)
        assert graph.transitions >= 5 * reduced.executed
        # Exact counts on both sides: an exploration-count drift or a
        # reduction regression shows here first.
        assert (len(graph.states), graph.transitions) == (40486, 91882)
        assert (reduced.states, reduced.executed) == (2187, 2430)
        assert int(graph.transitions / reduced.executed * 10) == 378
        for check in (prefix_property, token_uniqueness,
                      search_direction_sound):
            assert all(check(s) for s in reduced.state_set)

    @pytest.mark.parametrize("key", ALL_SYSTEMS)
    def test_persistent_states_are_a_subset(self, key):
        _, rewriter, initial = _setup(key)
        graph = explore_graph(rewriter, initial, max_states=50_000)
        reduced = explore_dpor(rewriter, initial, mode="persistent",
                               max_states=50_000)
        assert reduced.complete
        assert reduced.state_set <= frozenset(graph.states)
        assert initial in reduced.state_set


class TestDporPlumbing:
    def test_unknown_mode_rejected(self):
        _, rewriter, initial = _setup("token")
        with pytest.raises(VerifyError):
            explore_dpor(rewriter, initial, mode="both")

    def test_state_cap_reports_incomplete(self):
        _, rewriter, initial = _setup("binary_search")
        reduced = explore_dpor(rewriter, initial, mode="sleep", max_states=10)
        assert not reduced.complete
        assert reduced.states == 10

    def test_invariant_violation_raises(self):
        _, rewriter, initial = _setup("token")

        def never(state):
            return False

        with pytest.raises(VerifyError, match="never"):
            explore_dpor(rewriter, initial, mode="sleep",
                         invariants=[never])
