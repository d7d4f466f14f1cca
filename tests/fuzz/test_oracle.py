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

from repro.core.effects import Port
from repro.core.machine import TokenMachine
from repro.core.messages import GimmeMsg, TokenMsg
from repro.core.parts import DelegatedSearch
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


class _RewritingPort(Port):
    """Passes every call on to ``port``; sends go through ``rewrite``."""

    def __init__(self, port, rewrite):
        self.port, self.rewrite = port, rewrite

    def send(self, dst, msg):
        self.port.send(*self.rewrite(dst, msg))

    def timer(self, key, delay):
        self.port.timer(key, delay)

    def cancel(self, key):
        self.port.cancel(key)

    def deliver(self, kind, payload=()):
        self.port.deliver(kind, payload)


def rewriting_sends(real, rewrite):
    """``real`` (a core method) with every send it makes rewritten by
    ``rewrite(core, dst, msg) -> (dst, msg)``."""
    def broken(self, *args):
        port = self.out
        self.out = _RewritingPort(
            port, lambda dst, msg: rewrite(self, dst, msg))
        try:
            real(self, *args)
        finally:
            self.out = port
    return broken


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
            real(self)
            self.has_token = True  # canary: token duplicated

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
        def skip(core, dst, msg):
            if isinstance(msg, TokenMsg):
                msg = replace(msg, clock=msg.clock + 1)
            return dst, msg

        broken = rewriting_sends(TokenMachine._forward, skip)

        with mock.patch.object(TokenMachine, "_forward", broken):
            case, result = _first_violation("clean")
            assert case is not None
            assert result.violation["invariant"] == "hop-clock"

    def test_stamp_mutating_forward_is_caught(self):
        """A forwarded gimme must carry the requester's frozen snapshot;
        rewriting the stamp en route corrupts the rule-6 comparison."""
        def restamp(core, dst, msg):
            if isinstance(msg, GimmeMsg):
                msg = replace(msg, visit_stamp=msg.visit_stamp + 1)
            return dst, msg

        broken = rewriting_sends(DelegatedSearch._on_gimme, restamp)

        with mock.patch.object(DelegatedSearch, "_on_gimme", broken):
            case, result = _first_violation("clean")
            assert case is not None
            assert result.violation["invariant"] in (
                "stamp-mutation", "search-direction")

    def test_misdirected_search_is_caught(self):
        """Inverting rule 6's direction decision sends the gimme away from
        the token; the differential against the shadow histories fires."""
        def flip(core, dst, msg):
            if isinstance(msg, GimmeMsg) and msg.requester != core.node_id:
                flipped = (2 * core.node_id - dst) % core.n
                if flipped not in (dst, core.node_id, msg.requester):
                    dst = flipped
            return dst, msg

        broken = rewriting_sends(DelegatedSearch._on_gimme, flip)

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
        """A token that silently evaporates on its way to the core — with
        no declared fault to account for it — violates strict
        conservation.  (Contrast with the oracle's own ``lose_token``,
        which counts as a declared loss and therefore relaxes the check.)"""
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

        def swallowing(src, msg):
            if isinstance(msg, TokenMsg) and not dropped:
                dropped.append(src)
                return True  # silently eaten: an *undeclared* loss
            return False

        # Behind the oracle's own hook: it saw the token arrive.
        for driver in cluster.drivers.values():
            driver.on_control.append(swallowing)
        # The ring goes silent once its only token is gone, so the run
        # ends without a check point: draw the verdict after it.
        cluster.run(until=60.0, max_events=2000)
        assert dropped
        with pytest.raises(OracleViolation) as exc:
            oracle.check()
        assert exc.value.invariant == "token-conservation"


class TestOracleAcrossLifecycle:
    """A node that restarts or joins is watched from its first event: on
    either clock (``...OnLoop``), a clean schedule around it raises no
    alarm.  Wired only at ``attach()``, the oracle kept a reborn node's
    pre-crash history and saw none of a joiner's visits, and read both as
    ``shadow-divergence``.  Times are message delays on both clocks."""

    on_loop = False

    def watch(self, clock, protocol):
        from repro.core.cluster import Cluster
        from repro.fuzz import InvariantOracle, safety

        cluster = Cluster.build(protocol, 5, seed=3, sim=clock, delay=1.0)
        oracle = InvariantOracle(cluster, protocol=protocol,
                                 verdict=safety())
        oracle.attach()
        granted = []
        cluster.on_grant(lambda node, seq, now: granted.append(node))
        cluster.start()
        return cluster, oracle, granted

    def requests(self, clock, cluster, nodes):
        """One request every 7 delays from t=50 on, cycling ``nodes``."""
        times = range(50, 400, 7)
        for k, t in enumerate(times):
            clock.call_later(t - clock.time(), cluster.request,
                             nodes[k % len(nodes)])
        return len(times)

    @pytest.mark.parametrize("protocol", ["binary_search", "fault_tolerant"])
    def test_a_restarted_node_raises_no_alarm(self, clock, protocol):
        from tests.clocks import run

        cluster, oracle, granted = self.watch(clock, protocol)
        clock.call_later(20.0, cluster.crash, 2)
        clock.call_later(21.0, cluster.restart, 2)
        asked = self.requests(clock, cluster, range(5))
        run(clock, until=600.0)
        assert oracle.violation is None
        assert cluster._incarnations[2] == 1
        assert len(granted) == asked
        assert oracle.checks > 0

    @pytest.mark.parametrize("protocol", ["binary_search", "fault_tolerant"])
    def test_a_joined_node_raises_no_alarm(self, clock, protocol):
        from tests.clocks import run

        cluster, oracle, granted = self.watch(clock, protocol)
        clock.call_later(20.0, cluster.join)
        asked = self.requests(clock, cluster, range(6))
        run(clock, until=600.0)
        assert oracle.violation is None
        assert len(cluster.drivers) == 6
        assert len(granted) == asked
        assert 5 in granted


class TestOracleAcrossLifecycleOnLoop(TestOracleAcrossLifecycle):
    on_loop = True
