"""Convergence oracle + stabilizing core, end to end: fixed-seed fuzz
batches converge, episodes are measured, replays are bit-exact, and the
fastsim diff harness names why it sits this one out."""

from repro.fastsim.diff import diff_case
from repro.faults.corruption import CORRUPTION_KINDS
from repro.fuzz.case import FuzzCase, generate_case
from repro.fuzz.runner import run_case
from repro.stabilize import (
    convergence_bound,
    default_stabilize_config,
    delay_ceiling,
    measure_convergence,
)


def stab_case(**changes):
    base = dict(
        seed=31, kind="impl", protocol="stabilizing", n=5,
        delay={"kind": "constant", "delay": 1.0},
        config={"trap_gc": "rotation", "regen_timeout": 40.0,
                "census_window": 5.0, "loan_timeout": 30.0,
                "stabilize_watch": 20.0},
        requests=[(float(t * 20 + 1), (t * 3 + 1) % 5) for t in range(8)],
        faults=[{"t": 60.0, "op": "corrupt", "a": 2,
                 "what": "duplicate_token", "arg": 7}],
        horizon=600.0, label="handmade-stab")
    base.update(changes)
    return FuzzCase(**base).validate()


class TestConvergence:
    def test_single_corruption_converges_and_is_measured(self):
        result = run_case(stab_case())
        assert result.ok, result.violation
        stab = result.stabilization
        assert stab is not None
        assert stab["injections"] == 1
        assert stab["episodes"] >= 1
        assert stab["max_stabilization_time"] <= stab["bound"]

    def test_every_corruption_kind_converges(self):
        for index, kind in enumerate(CORRUPTION_KINDS):
            case = stab_case(faults=[{
                "t": 60.0, "op": "corrupt", "a": (index * 2 + 1) % 5,
                "what": kind, "arg": 17 + index}])
            result = run_case(case)
            assert result.ok, (kind, result.violation)

    def test_corruption_on_fault_tolerant_core_is_judged_leniently(self):
        # A corrupt fault on a *non*-stabilizing protocol still swaps in
        # the convergence oracle (the standard one would flag the illegal
        # intermediate states as lineage bugs rather than injected ones).
        case = stab_case(protocol="fault_tolerant",
                         config={"trap_gc": "rotation",
                                 "regen_timeout": 40.0,
                                 "census_window": 5.0,
                                 "loan_timeout": 30.0})
        result = run_case(case)
        assert result.stabilization is not None

    def test_replay_is_bit_exact(self):
        case = stab_case()
        first, second = run_case(case), run_case(case)
        assert first.checksum == second.checksum
        assert first.stabilization == second.stabilization

    def test_fixed_seed_stabilize_batch_converges(self):
        # The CI smoke contract: this exact batch stays green.
        for index in range(6):
            case = generate_case(2001, index, "stabilize")
            assert case.protocol == "stabilizing"
            assert any(f["op"] == "corrupt" for f in case.faults)
            result = run_case(case)
            assert result.ok, (index, case.label, result.violation)
            assert result.stabilization["injections"] >= 1

    def test_generated_cases_are_pinned(self):
        assert generate_case(2001, 0, "stabilize") \
            == generate_case(2001, 0, "stabilize")


class TestMeasurement:
    def test_measure_convergence_reports_percentiles(self):
        corruptions = [("duplicate_token", 1, 11),
                       ("delete_token", 3, 12),
                       ("scramble_stamp", 0, 13)]
        doc = measure_convergence(5, corruptions, seed=3)
        assert doc["injections"] == 3
        # +1: the oracle treats the initial state as an injected one too
        # (self-stabilization makes no assumption about where you start).
        assert doc["episodes"] == 4
        assert 0.0 <= doc["stabilization_p50"] <= doc["stabilization_p99"]
        assert doc["stabilization_p99"] <= doc["bound"]
        assert doc["grants"] > 0

    def test_n9_alternating_corruptions_pinned(self):
        """Ten injections on n = 9, alternating the epoch-fenced reduction
        path (a second token conjured at a rotating victim) with the
        local-repair path (scrambled round/grant stamps).  Virtual-time
        samples are bit-exact across hosts, so the percentiles are pinned
        to the microsecond: a convergence-speed change fails loudly."""
        corruptions = [
            ("duplicate_token" if i % 2 == 0 else "scramble_stamp",
             (i * 4 + 2) % 9, 101 + i * 37)
            for i in range(10)
        ]
        doc = measure_convergence(9, corruptions, seed=2001)
        assert (doc["episodes"], doc["injections"], doc["grants"]) \
            == (11, 10, 197)
        assert [round(doc[key] * 1e6) for key in (
            "stabilization_p50", "stabilization_p99",
            "max_stabilization_time")] == [0, 7_600_000, 8_000_000]

    def test_bound_scales_with_ring_and_delay(self):
        config = default_stabilize_config()
        assert convergence_bound(config, 9, 1.0) \
            > convergence_bound(config, 5, 1.0)
        assert convergence_bound(config, 5, 2.0) \
            > convergence_bound(config, 5, 1.0)

    def test_delay_ceiling_covers_each_model(self):
        assert delay_ceiling({"kind": "constant", "delay": 2.0}) == 2.0
        assert delay_ceiling({"kind": "uniform", "low": 0.5,
                              "high": 3.0}) == 3.0
        assert delay_ceiling({"kind": "exponential", "mean": 2.0}) == 12.0


class TestFastsimSkip:
    def test_stabilizing_protocol_names_its_skip_reason(self):
        report = diff_case(stab_case())
        assert report.verdict == "skipped"
        assert "stabilizing" in report.skip_reason

    def test_corrupt_fault_names_its_skip_reason(self):
        case = stab_case(protocol="fault_tolerant",
                         config={"trap_gc": "rotation",
                                 "regen_timeout": 40.0,
                                 "census_window": 5.0,
                                 "loan_timeout": 30.0})
        report = diff_case(case)
        assert report.verdict == "skipped"
        assert "corrupt" in report.skip_reason
