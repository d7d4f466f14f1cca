"""Canary bugs: deliberately broken protocol variants must be caught.

Each canary patches one protocol behaviour, runs the fuzz loop until the
oracle objects, and (for the acceptance canary) shrinks the counterexample
to a handful of schedule events.  The spec-level differential is exercised
with a synthetic reduction whose rule-6 binding contradicts the
implementation's visit-count criterion.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.core.machine import TokenMachine
from repro.core.parts import DelegatedSearch
from repro.core.effects import Send
from repro.core.messages import GimmeMsg, TokenMsg
from repro.fuzz import (
    FuzzCase,
    OracleViolation,
    check_spec_reduction,
    generate_case,
    run_case,
    shrink,
)
from repro.specs.common import proc
from repro.trs.trace import Reduction


def _first_violation(profile, runs=30, root=99):
    for index in range(runs):
        case = generate_case(root, index, profile)
        result = run_case(case)
        if not result.ok:
            return case, result
    return None, None


class TestImplCanaries:
    def test_duplicating_forward_is_caught_and_shrunk(self):
        """Acceptance canary: a core that keeps the token after forwarding
        it must trip the oracle, and the schedule must shrink to <= 20
        events."""
        real = TokenMachine._forward

        def broken(self):
            effects = real(self)
            self.has_token = True  # canary: token duplicated
            return effects

        with mock.patch.object(TokenMachine, "_forward", broken):
            case, result = _first_violation("clean")
            assert case is not None, "canary escaped the oracle"
            assert result.violation["invariant"] in (
                "single-token-census", "token-conservation")
            small, small_result, _ = shrink(case, result)
            assert small_result.violation["invariant"] == \
                result.violation["invariant"]
            assert small.event_count() <= 20

    def test_clock_skipping_hop_is_caught(self):
        """A token hop that advances the clock by two fabricates a visit
        the shadow history never saw."""
        real = TokenMachine._forward

        def broken(self):
            return [
                Send(e.dst, replace(e.msg, clock=e.msg.clock + 1))
                if isinstance(e, Send) and isinstance(e.msg, TokenMsg) else e
                for e in real(self)
            ]

        with mock.patch.object(TokenMachine, "_forward", broken):
            case, result = _first_violation("clean")
            assert case is not None
            assert result.violation["invariant"] == "hop-clock"

    def test_stamp_mutating_forward_is_caught(self):
        """A forwarded gimme must carry the requester's frozen snapshot;
        rewriting the stamp en route corrupts the rule-6 comparison."""
        real = DelegatedSearch._on_gimme

        def broken(self, msg, now):
            return [
                Send(e.dst, replace(e.msg, visit_stamp=e.msg.visit_stamp + 1))
                if isinstance(e, Send) and isinstance(e.msg, GimmeMsg) else e
                for e in real(self, msg, now)
            ]

        with mock.patch.object(DelegatedSearch, "_on_gimme", broken):
            case, result = _first_violation("clean")
            assert case is not None
            assert result.violation["invariant"] in (
                "stamp-mutation", "search-direction")

    def test_misdirected_search_is_caught(self):
        """Inverting rule 6's direction decision sends the gimme away from
        the token; the differential against the shadow histories fires."""
        real = DelegatedSearch._on_gimme

        def broken(self, msg, now):
            out = []
            for e in real(self, msg, now):
                if isinstance(e, Send) and isinstance(e.msg, GimmeMsg) \
                        and e.msg.requester != self.node_id:
                    flipped = (2 * self.node_id - e.dst) % self.n
                    if flipped not in (e.dst, self.node_id, e.msg.requester):
                        e = Send(flipped, e.msg)
                out.append(e)
            return out

        with mock.patch.object(DelegatedSearch, "_on_gimme", broken):
            case, result = _first_violation("clean", runs=40)
            assert case is not None
            assert result.violation["invariant"] == "search-direction"


class TestSpecDifferential:
    def _gimme_step(self, h_visits, hz_visits):
        from repro.specs.common import visit
        from repro.trs.terms import Seq

        h = Seq([visit(x) for x in h_visits])
        hz = Seq([visit(x) for x in hz_visits])
        reduction = Reduction(proc(0))
        reduction.record("6", {"H": h, "Hz": hz, "x": proc(1)}, proc(0))
        return reduction

    def test_agreeing_decision_passes(self):
        # |ring(H)| < |ring(Hz)| and H is a prefix of Hz: both say ccw.
        reduction = self._gimme_step([0, 1], [0, 1, 2])
        assert check_spec_reduction(reduction, 4) == 1

    def test_tie_is_exempt(self):
        reduction = self._gimme_step([0, 1], [0, 1])
        assert check_spec_reduction(reduction, 4) == 0

    def test_disagreement_is_caught(self):
        # H is shorter than Hz (the impl would search ccw) yet NOT a
        # prefix of it (the spec searches cw): the criteria disagree.
        reduction = self._gimme_step([1], [0, 2])
        with pytest.raises(OracleViolation) as exc:
            check_spec_reduction(reduction, 4)
        assert exc.value.invariant == "rule6-differential"

    def test_spec_walk_runs_differential(self):
        """A healthy spec walk exercises the differential (rule-6 steps are
        compared, none disagree) and reports ok."""
        case = FuzzCase(seed=41, kind="spec", system="BS", n=3, steps=200)
        result = run_case(case)
        assert result.ok, result.violation


class TestStrictConservation:
    def test_swallowed_token_is_caught_on_clean_schedule(self):
        """A token that silently evaporates in the network — with no
        declared fault to account for it — violates strict conservation.
        (Contrast with the oracle's own ``drop_token`` hook, which counts
        as a declared loss and therefore relaxes the check.)"""
        from repro.core.cluster import Cluster
        from repro.core.config import ProtocolConfig
        from repro.fuzz import (InvariantOracle, build_delay, derive_seed,
                                safety)

        cluster = Cluster.build(
            "ring", 3, seed=derive_seed(17, "net"),
            config=ProtocolConfig(),
            delay=build_delay({"kind": "constant", "delay": 1.0}),
            sanitize=True)
        oracle = InvariantOracle(cluster, protocol="ring",
                                 verdict=safety(strict=True))
        oracle.attach()
        dropped = []
        orig = oracle._orig_deliver

        def swallowing(src, dst, msg):
            if isinstance(msg, TokenMsg) and not dropped:
                dropped.append((src, dst))
                return  # silently eaten: an *undeclared* loss
            orig(src, dst, msg)

        oracle._orig_deliver = swallowing
        with pytest.raises(OracleViolation) as exc:
            cluster.run(until=60.0, max_events=2000)
        assert exc.value.invariant == "token-conservation"
        assert dropped
