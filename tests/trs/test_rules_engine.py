"""Unit tests for rules, strategies, the rewriter, and reduction traces."""

import random

import pytest

from repro.errors import NoApplicableRuleError, RuleError, SpecError
from repro.trs.engine import Rewriter
from repro.trs.rules import Rule, RuleContext, RuleSet
from repro.trs.strategies import (
    avoid_rules,
    first_applicable,
    prefer_rules,
    random_strategy,
    weighted_strategy,
)
from repro.trs.terms import atom, bag, struct, var


def counter_rules(limit=None):
    """A tiny counter system: inc bumps the value, reset zeroes it."""
    def inc_where(binding, ctx):
        return {"v2": atom(binding["v"].value + 1)}

    guard = None
    if limit is not None:
        def guard(binding, ctx):
            return binding["v"].value < limit

    inc = Rule("inc", struct("c", var("v")), struct("c", var("v2")),
               guard=guard, where=inc_where)
    reset = Rule("reset", struct("c", var("v")), struct("c", atom(0)))
    return RuleSet([inc, reset])


class TestRule:
    def test_free_rhs_vars_need_where_or_choices(self):
        with pytest.raises(RuleError):
            Rule("bad", struct("c", var("v")), struct("c", var("w")))

    def test_where_binds_free_vars(self):
        rules = counter_rules()
        rw = Rewriter(rules)
        out = rw.apply(struct("c", atom(3)), rules["inc"],
                       {"v": atom(3)})
        assert out == struct("c", atom(4))

    def test_guard_blocks_instantiation(self):
        rules = counter_rules(limit=2)
        rw = Rewriter(rules)
        state = struct("c", atom(2))
        names = [r.name for r, _ in rw.instantiations(state)]
        assert names == ["reset"]

    def test_where_veto_returns_none(self):
        veto = Rule("veto", struct("c", var("v")), struct("c", var("v2")),
                    where=lambda b, c: None)
        rw = Rewriter(RuleSet([veto]))
        assert rw.apply(struct("c", atom(1)), veto, {"v": atom(1)}) is None

    def test_choices_expand_instantiations(self):
        def choices(binding, ctx):
            for y in (10, 20):
                yield {"y": atom(y)}

        rule = Rule("pick", struct("c", var("v")), struct("c", var("y")),
                    choices=choices)
        rw = Rewriter(RuleSet([rule]))
        succ = {s for _, s in rw.successors(struct("c", atom(0)))}
        assert succ == {struct("c", atom(10)), struct("c", atom(20))}

    def test_restricted_narrows_guard(self):
        rules = counter_rules()
        narrowed = rules["inc"].restricted(
            guard=lambda b, c: b["v"].value == 0)
        rw = Rewriter(RuleSet([narrowed]))
        assert not rw.is_normal_form(struct("c", atom(0)))
        assert rw.is_normal_form(struct("c", atom(1)))

    def test_non_ground_result_raises(self):
        bad = Rule("bad", struct("c", var("v")), struct("c", var("w")),
                   where=lambda b, c: {"unrelated": atom(1)})
        rw = Rewriter(RuleSet([bad]))
        with pytest.raises(RuleError):
            rw.apply(struct("c", atom(0)), bad, {"v": atom(0)})


class TestRuleSet:
    def test_duplicate_names_rejected(self):
        r = Rule("a", var("x"), var("x"))
        with pytest.raises(RuleError):
            RuleSet([r, Rule("a", var("y"), var("y"))])

    def test_lookup(self):
        rules = counter_rules()
        assert rules["inc"].name == "inc"
        assert "reset" in rules
        with pytest.raises(RuleError):
            rules["missing"]

    def test_without(self):
        rules = counter_rules().without("reset")
        assert rules.names() == ["inc"]
        with pytest.raises(RuleError):
            rules.without("nope")

    def test_replaced(self):
        rules = counter_rules()
        replacement = Rule("reset", struct("c", var("v")), struct("c", atom(9)))
        new = rules.replaced(replacement)
        assert new["reset"].rhs == struct("c", atom(9))

    def test_extended(self):
        rules = counter_rules()
        extra = Rule("noop", var("s"), var("s"))
        assert len(rules.extended(extra)) == 3


class TestRewriter:
    def test_reduce_runs_to_bound(self):
        rw = Rewriter(counter_rules())
        red = rw.reduce(struct("c", atom(0)), max_steps=5,
                        strategy=first_applicable)
        assert len(red) == 5
        assert red.final == struct("c", atom(5))

    def test_reduce_stop_predicate(self):
        rw = Rewriter(counter_rules())
        red = rw.reduce(struct("c", atom(0)), max_steps=100,
                        stop=lambda s: s == struct("c", atom(3)))
        assert red.final == struct("c", atom(3))

    def test_normal_form_detection(self):
        dead = Rewriter(RuleSet([Rule("never", struct("x"), struct("x"),
                                      guard=lambda b, c: False)]))
        assert dead.is_normal_form(struct("x"))

    def test_require_progress_raises_when_stuck(self):
        dead = Rewriter(RuleSet([Rule("never", struct("x"), struct("x"),
                                      guard=lambda b, c: False)]))
        with pytest.raises(NoApplicableRuleError):
            dead.reduce(struct("x"), max_steps=3, require_progress=True)

    def test_reachable_bounded(self):
        rw = Rewriter(counter_rules(limit=3))
        states = rw.reachable(struct("c", atom(0)), max_states=10)
        assert struct("c", atom(3)) in states
        assert struct("c", atom(4)) not in states
        # An unbounded system stops exactly at the cap.
        unbounded = Rewriter(counter_rules())
        assert len(unbounded.reachable(struct("c", atom(0)),
                                       max_states=300)) == 300

    def test_can_reach_within_depth(self):
        rw = Rewriter(counter_rules())
        assert rw.can_reach(struct("c", atom(0)), struct("c", atom(2)), 2)
        assert not rw.can_reach(struct("c", atom(0)), struct("c", atom(3)), 2)

    def test_can_reach_zero_steps(self):
        rw = Rewriter(counter_rules())
        assert rw.can_reach(struct("c", atom(5)), struct("c", atom(5)), 0)

    def test_random_reduction_deterministic_per_seed(self):
        rw1 = Rewriter(counter_rules())
        rw2 = Rewriter(counter_rules())
        r1 = rw1.random_reduction(struct("c", atom(0)), 30, seed=4)
        r2 = rw2.random_reduction(struct("c", atom(0)), 30, seed=4)
        assert [s.rule_name for s in r1.steps] == [s.rule_name for s in r2.steps]


class TestStrategies:
    def test_first_applicable_empty(self):
        assert first_applicable([]) is None

    def test_prefer_rules(self):
        rules = counter_rules()
        rw = Rewriter(rules)
        strategy = prefer_rules(["reset"], first_applicable)
        outcome = rw.step(struct("c", atom(5)), strategy)
        assert outcome[0] == "reset"

    def test_avoid_rules(self):
        rules = counter_rules()
        rw = Rewriter(rules)
        strategy = avoid_rules(["inc"], first_applicable)
        outcome = rw.step(struct("c", atom(5)), strategy)
        assert outcome[0] == "reset"

    def test_avoid_falls_back_when_nothing_else(self):
        rules = counter_rules().without("reset")
        rw = Rewriter(rules)
        strategy = avoid_rules(["inc"], first_applicable)
        outcome = rw.step(struct("c", atom(0)), strategy)
        assert outcome[0] == "inc"

    def test_weighted_zero_weight_declines(self):
        rng = random.Random(0)
        strategy = weighted_strategy(rng, {"inc": 0.0, "reset": 0.0})
        rw = Rewriter(counter_rules())
        assert rw.step(struct("c", atom(0)), strategy) is None

    def test_weighted_prefers_heavy_rule(self):
        rng = random.Random(0)
        strategy = weighted_strategy(rng, {"inc": 0.0, "reset": 5.0})
        rw = Rewriter(counter_rules())
        outcome = rw.step(struct("c", atom(1)), strategy)
        assert outcome[0] == "reset"


class TestReductionTrace:
    def test_states_iteration(self):
        rw = Rewriter(counter_rules())
        red = rw.reduce(struct("c", atom(0)), 3)
        states = list(red.states())
        assert states[0] == struct("c", atom(0))
        assert len(states) == 4

    def test_rule_counts(self):
        rw = Rewriter(counter_rules())
        red = rw.reduce(struct("c", atom(0)), 4)
        assert red.rule_counts() == {"inc": 4}

    def test_invariant_failure_identifies_step(self):
        rw = Rewriter(counter_rules())
        red = rw.reduce(struct("c", atom(0)), 4)
        with pytest.raises(SpecError) as err:
            red.check_invariant(lambda s: s.args[0].value < 3, "small")
        assert "step 2" in str(err.value)

    def test_invariant_checks_initial_state(self):
        rw = Rewriter(counter_rules())
        red = rw.reduce(struct("c", atom(9)), 0)
        with pytest.raises(SpecError):
            red.check_invariant(lambda s: s.args[0].value < 3)


class TestRuleContext:
    def test_fresh_is_monotone(self):
        ctx = RuleContext()
        assert [ctx.fresh() for _ in range(3)] == [0, 1, 2]
