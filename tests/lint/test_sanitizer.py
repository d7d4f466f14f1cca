"""Transition sanitizer: clean runs stay silent, injected faults are caught
with structured violations naming the rule and binding."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.cluster import Cluster
from repro.core.protocols import REGISTRY
from repro.lint.findings import LintViolation
from repro.lint.rewriter import SanitizedRewriter, minimize_state
from repro.lint.sanitizer import ClusterSanitizer, sanitize_enabled
from repro.specs import system_message_passing as mp
from repro.specs import system_s
from repro.specs.common import datum
from repro.specs.modelcheck import bound_data
from repro.specs.properties import token_uniqueness
from repro.trs.rules import Rule, RuleSet
from repro.trs.terms import Atom, Bag, Seq, Struct, Var
from repro.workload.generators import FixedRateWorkload


class TestEnvironmentSwitches:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled() is True

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", " OFF "])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled() is False

    def test_truthy_values_enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled() is True

    def test_cluster_respects_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        cluster = Cluster.build("ring", n=2, seed=1)
        assert cluster.sanitizer is None

    def test_explicit_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        cluster = Cluster.build("ring", n=2, seed=1, sanitize=True)
        assert cluster.sanitizer is not None


class TestSanitizedRewriter:
    def test_clean_reduction_is_silent(self):
        rules = bound_data(mp.make_rules(3, ring=True), 1)
        rewriter = SanitizedRewriter(rules)
        rewriter.random_reduction(mp.initial_state(3), 80, seed=5)
        assert rewriter.checked > 0

    def test_duplicate_token_rule_is_caught(self):
        # Evil rule: the holder emits a token message while also keeping
        # the token — two tokens observable, the paper's cardinal sin.
        lhs = mp._state(
            Var("Q"),
            Bag([mp._p(Var("x"), Var("H"))], rest=Var("P")),
            Var("x"), Var("I"), Var("O"),
        )
        rhs = mp._state(
            Var("Q"),
            Bag([mp._p(Var("x"), Var("H"))], rest=Var("P")),
            Var("x"), Var("I"),
            Bag([mp._out(Var("x"), Var("x"), mp._token(Var("H")))],
                rest=Var("O")),
        )
        rewriter = SanitizedRewriter(RuleSet([Rule("evil", lhs, rhs)]))
        with pytest.raises(LintViolation) as err:
            rewriter.step(mp.initial_state(2))
        violation = err.value
        assert violation.invariant == "token-uniqueness"
        assert violation.rule == "evil"
        assert "x" in violation.binding
        # The minimized state still violates and is structurally no larger.
        assert not token_uniqueness(violation.minimized)
        assert violation.rule in str(violation)
        assert "binding" in str(violation)

    def test_history_rollback_is_caught(self):
        # System S state with one broadcast datum; the amnesia rule wipes
        # the global history — a non-append transition.
        state = system_s._state(
            Bag([system_s._pair(Atom(0), Seq()),
                 system_s._pair(Atom(1), Seq())]),
            Seq((datum(0, 0),)),
        )
        amnesia = Rule(
            "amnesia",
            system_s._state(Var("Q"), Var("H")),
            system_s._state(Var("Q"), Seq()),
        )
        rewriter = SanitizedRewriter(RuleSet([amnesia]))
        with pytest.raises(LintViolation) as err:
            rewriter.step(state)
        assert err.value.invariant == "history-monotonicity"
        assert err.value.rule == "amnesia"

    def test_every_k_skips_intermediate_transitions(self):
        rules = bound_data(mp.make_rules(2), 1)
        rewriter = SanitizedRewriter(rules, every=1000)
        rewriter.random_reduction(mp.initial_state(2), 30, seed=3)
        assert rewriter.checked == 0


class TestMinimizeState:
    def test_shrinks_bags_while_preserving_violation(self):
        state = Struct("st", (Bag([Atom(i) for i in range(6)] + [Atom(99)]),))

        def violated(s):
            return Atom(99) in s.args[0]

        minimized = minimize_state(state, violated)
        assert violated(minimized)
        assert len(list(minimized.args[0])) == 1

    def test_error_probes_count_as_not_violated(self):
        state = Struct("st", (Bag([Atom(1), Atom(2)]),))

        def brittle(s):
            if len(list(s.args[0])) < 2:
                raise ValueError("malformed")
            return True

        minimized = minimize_state(state, brittle)
        assert len(list(minimized.args[0])) == 2  # never shrank into errors


def ring_core(node_id, **fields):
    """A real core with the audited fields set by hand."""
    core = REGISTRY["ring"](node_id, ProtocolConfig(n=4))
    vars(core).update(fields)
    return core


class _EveryCheckInFull(ClusterSanitizer):
    """The per-event audit with no shortcut in front of any invariant."""

    def after_apply(self, core, origin, payload, now):
        self.checked += 1
        self._update_core(core)
        self._check_census(origin, core.node_id, payload)
        self._check_core(core, origin, core.node_id, payload)


class TestClusterSanitizer:
    def test_small_figure9_style_run_is_clean(self):
        # The acceptance run: a Figure-9-style small-n binary-search
        # simulation completes under the sanitizer with zero violations.
        cluster = Cluster.build("binary_search", n=8, seed=9, sanitize=True)
        cluster.add_workload(FixedRateWorkload(mean_interval=10.0))
        cluster.run(rounds=5, max_events=100_000)
        assert cluster.sanitizer is not None
        assert cluster.sanitizer.checked > 0
        cluster.sanitizer.check()  # quiescent full rescan, still clean

    def test_sanitized_and_bare_runs_send_the_same_messages(self):
        # The checker must not perturb the run it watches.
        totals = []
        for sanitize in (True, False):
            cluster = Cluster.build("binary_search", n=32, seed=11,
                                    sanitize=sanitize)
            cluster.add_workload(FixedRateWorkload(mean_interval=5.0))
            cluster.run(rounds=30, max_events=1_000_000)
            assert (cluster.sanitizer is not None) == sanitize
            totals.append(cluster.messages.total)
        assert totals[0] == totals[1] > 1000

    def test_injected_duplicate_token_is_caught(self):
        config = ProtocolConfig(hold_until_release=True)
        cluster = Cluster.build("ring", n=4, seed=2, config=config,
                                sanitize=True)
        # Fault injection: node 2 conjures a phantom token while node 0
        # (the initial holder) still has the real one.
        cluster.drivers[2].core.has_token = True
        with pytest.raises(LintViolation) as err:
            cluster.request(2)
        violation = err.value
        assert violation.invariant == "single-token-census"
        assert violation.rule == "on_request"
        assert violation.binding["node"] == 2
        assert violation.state["holders"] == [0, 2]

    def test_crashed_nodes_leave_the_census(self):
        sanitizer = ClusterSanitizer()
        holder = ring_core(0, has_token=True)
        phantom = ring_core(1, has_token=True)
        sanitizer.register(holder)
        sanitizer.register(phantom)
        with pytest.raises(LintViolation):
            sanitizer.check()
        sanitizer.mark_crashed(1)
        sanitizer.check()  # the phantom died with its node

    def test_epoch_fencing_tolerates_stale_old_epoch_tokens(self):
        sanitizer = ClusterSanitizer()
        stale = ring_core(0, epoch=1, has_token=True)
        fresh = ring_core(1, epoch=2, has_token=True)
        sanitizer.register(stale)
        sanitizer.register(fresh)
        sanitizer.check()  # one token per epoch: regeneration in progress
        second = ring_core(2, epoch=2, has_token=True)
        sanitizer.register(second)
        with pytest.raises(LintViolation) as err:
            sanitizer.check()
        assert err.value.state["epoch"] == 2
        assert err.value.state["holders"] == [1, 2]

    def test_clock_rollback_is_caught(self):
        sanitizer = ClusterSanitizer()
        core = ring_core(0, has_token=True, clock=5)
        sanitizer.register(core)
        sanitizer.after_apply(core, "on_message", None, 0.0)
        core.clock = 3
        with pytest.raises(LintViolation) as err:
            sanitizer.after_apply(core, "on_message", None, 1.0)
        assert err.value.invariant == "clock-monotonicity"

    @pytest.mark.parametrize("cores, steps, expected", [
        pytest.param(
            # Two tokens in the newest epoch while an older epoch also holds
            # one: the census a "single holder" shortcut must not skip.
            [dict(epoch=1, has_token=True), dict(epoch=2, has_token=True),
             dict(epoch=2)],
            [(1, {}, "on_message"), (0, {}, "on_timer"),
             (2, dict(has_token=True), "on_message")],
            (2, "single-token-census", "on_message",
             {"epoch": 2, "holders": [1, 2]}),
            id="census-newest-epoch-twice-beside-an-older-one"),
        pytest.param(
            [dict(epoch=2, has_token=True), dict(epoch=2)],
            [(1, dict(lent_to=0), "on_request")],
            (0, "single-token-census", "on_request",
             {"epoch": 2, "holders": [0, 1]}),
            id="census-second-token-on-loan"),
        pytest.param(
            [dict(epoch=1, has_token=True), dict(epoch=2)],
            [(1, dict(has_token=True), "on_message"),
             (0, dict(has_token=False), "on_message"),
             (1, dict(clock=4), "on_timer")],
            None,
            id="census-one-token-per-epoch-is-clean"),
        pytest.param(
            [dict(clock=5), dict()],
            [(0, {}, "on_message"), (1, dict(clock=9), "on_message"),
             (0, dict(clock=3), "on_timer")],
            (2, "clock-monotonicity", "on_timer",
             {"node": 0, "clock": 3, "previous": 5}),
            id="clock-rollback"),
        pytest.param(
            [dict(req_seq=2, granted_seq=1), dict()],
            [(0, dict(granted_seq=2), "on_message"),
             (0, dict(granted_seq=3), "on_message")],
            (1, "grant-sequencing", "on_message",
             {"node": 0, "granted_seq": 3, "req_seq": 2}),
            id="grant-past-request"),
        pytest.param(
            [dict(clock=5, req_seq=1, granted_seq=1)],
            [(0, {}, "on_release"),
             (0, dict(clock=4, granted_seq=2), "on_release")],
            (1, "clock-monotonicity", "on_release",
             {"node": 0, "clock": 4, "previous": 5}),
            id="clock-and-grant-on-one-event-report-the-clock"),
        pytest.param(
            [dict(has_token=True, clock=5), dict(clock=5)],
            [(1, dict(has_token=True, clock=2), "on_message")],
            (0, "single-token-census", "on_message",
             {"epoch": 0, "holders": [0, 1]}),
            id="census-and-clock-on-one-event-report-the-census"),
    ])
    def test_each_invariant_raises_on_the_same_event_as_a_full_check(
            self, cores, steps, expected):
        outcomes = []
        for sanitizer in (ClusterSanitizer(), _EveryCheckInFull()):
            nodes = [ring_core(i, **fields) for i, fields in enumerate(cores)]
            for core in nodes:
                sanitizer.register(core)
            outcome = None
            for index, (node, fields, origin) in enumerate(steps):
                vars(nodes[node]).update(fields)
                payload = ("event", index)
                try:
                    sanitizer.after_apply(nodes[node], origin, payload, 0.0)
                except LintViolation as err:
                    assert err.binding == {"node": node, "payload": payload}
                    outcome = (index, err.invariant, err.rule, err.state)
                    break
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1] == expected
