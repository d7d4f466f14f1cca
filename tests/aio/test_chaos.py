"""Runtime-shaped cases on the ``aio`` backend: targeted fault scenarios
with bounded recovery, bit-exact determinism, case generation and
serialization, CLI plumbing, and the shrinker's first run on a runtime
counterexample."""

import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.fuzz import (
    PROFILES,
    FuzzCase,
    FuzzResult,
    fuzz_run,
    generate_case,
    run_case,
    shrink,
)


def scenario(**overrides) -> FuzzCase:
    base = dict(seed=11, n=4, delay={"kind": "constant", "delay": 0.01},
                loss_rate=0.0, recovery_window=8.0, requests=[(0.5, 1)],
                faults=[], horizon=20.0, label="handmade", backend="aio")
    base.update(overrides)
    return FuzzCase(protocol="fault_tolerant", **base).validate()


class TestTargetedScenarios:
    def test_holder_crash_mid_handoff_recovers(self):
        # Crash lands at t=1.0 while the token is rotating; requests
        # issued both before and after the crash must still be granted
        # inside the recovery window via census + regeneration.
        case = scenario(
            requests=[(0.8, 1), (1.5, 3)],
            faults=[{"t": 1.0, "op": "crash", "a": 0}],
        )
        result = run_case(case)
        assert result.ok, result.violation
        assert result.grants == 2
        assert result.runtime["restarts"] >= 1  # the supervisor repaired 0
        assert result.violation is None

    def test_partition_parks_minority_then_heals(self):
        # The minority side [3] cannot assemble a quorum: its census must
        # park rather than mint a duplicate token.  After heal_all the
        # parked request is served — zero oracle violations throughout.
        case = scenario(
            n=5,
            requests=[(1.5, 3), (2.0, 1)],
            faults=[
                {"t": 1.0, "op": "partition",
                 "group_a": [3], "group_b": [0, 1, 2, 4]},
                {"t": 3.0, "op": "heal_all"},
            ],
        )
        result = run_case(case)
        assert result.ok, result.violation
        assert result.grants == 2
        assert result.violation is None
        assert result.runtime["faults_not_reached"] == []

    def test_unrecoverable_request_is_reported_not_hidden(self):
        # A window too short to survive the crash+regeneration dance must
        # surface as a bounded-recovery violation, never a silent pass —
        # and as that, not as a protocol breach: the oracle stayed clean.
        case = scenario(
            recovery_window=0.05,
            requests=[(1.2, 2)],
            faults=[{"t": 1.0, "op": "crash", "a": 0}],
        )
        result = run_case(case)
        assert not result.ok
        assert result.violation["invariant"] == "bounded-recovery"
        unrecovered = result.violation["unrecovered"]
        assert len(unrecovered) == 1
        assert unrecovered[0]["node"] == 2

    def test_lossy_link_recovery_with_arq(self):
        # 10 % loss on the cheap class: the ARQ layer must carry the
        # protocol through without giving up on any frame.
        case = scenario(
            loss_rate=0.10,
            requests=[(0.5, 1), (1.0, 2), (1.5, 3)],
            faults=[{"t": 1.2, "op": "crash", "a": 0}],
        )
        result = run_case(case)
        assert result.ok, result.violation
        assert result.grants == 3
        assert result.runtime["give_ups"] == 0

    def test_dead_node_task_is_a_violation(self, monkeypatch):
        # A node coroutine killed by a core bug surfaces through the
        # driver's public failure() accessor, not as a hang or a pass.
        from repro.core import FaultTolerantCore

        def boom(self, src, msg, now):
            raise RuntimeError("core bug")

        monkeypatch.setattr(FaultTolerantCore, "on_message", boom)
        result = run_case(scenario(requests=[(0.5, 1)], horizon=3.0,
                                   recovery_window=1.0))
        assert not result.ok
        assert result.violation["invariant"] == "RuntimeError"
        assert "coroutine died" in result.violation["detail"]


class TestDeterminism:
    def test_same_case_same_result(self):
        case = generate_case(0, 2, "mixed", "aio")
        first = run_case(case)
        second = run_case(case)
        assert first.checksum == second.checksum
        assert first.ok and second.ok
        assert (first.grants, first.sends, first.runtime["restarts"]) \
            == (second.grants, second.sends, second.runtime["restarts"])

    def test_generation_is_a_pure_function_of_the_triple(self):
        a = generate_case(7, 3, "crash", "aio")
        b = generate_case(7, 3, "crash", "aio")
        assert a == b
        c = generate_case(7, 4, "crash", "aio")
        assert a != c  # sibling index draws a different scenario

    def test_profiles_shape_the_fault_plan(self):
        for index in range(4):
            crash = generate_case(0, index, "crash", "aio")
            assert all(f["op"] == "crash" for f in crash.faults)
            part = generate_case(0, index, "partition", "aio")
            assert {f["op"] for f in part.faults} == {"partition", "heal_all"}
            # "mixed" means the runtime rotation on the runtime backends.
            mixed = generate_case(0, index, "mixed", "wire")
            assert mixed.label.split("/")[0] == (
                "crash", "partition", "crash+partition")[index % 3]
            assert mixed.backend == "wire"


class TestCaseSchema:
    def test_round_trip_through_dict(self):
        case = generate_case(5, 1, "mixed", "aio")
        assert FuzzCase.from_dict(case.to_dict()) == case

    def test_save_load_round_trip_with_outcome(self, tmp_path):
        case = generate_case(5, 0, "crash", "aio")
        outcome = {"ok": True, "checksum": "deadbeef", "events": 0}
        path = str(tmp_path / "case.json")
        case.save(path, outcome=outcome)
        loaded, recorded = FuzzCase.load(path)
        assert loaded == case
        assert recorded == outcome

    def test_validate_rejects_bad_cases(self):
        with pytest.raises(ConfigError):
            scenario(backend="carrier-pigeon")
        with pytest.raises(ConfigError):
            scenario(recovery_window=-1.0)
        with pytest.raises(ConfigError):
            scenario(requests=[(0.5, 99)])
        with pytest.raises(ConfigError):
            scenario(faults=[{"t": 1.0, "op": "meteor"}])
        with pytest.raises(ConfigError):
            scenario(faults=[{"t": 1.0, "op": "crash", "a": 99}])
        with pytest.raises(ConfigError):
            scenario(faults=[{"t": 1.0, "op": "partition",
                              "group_a": [0], "group_b": []}])

    def test_unknown_profile_rejected(self):
        assert {"crash", "partition", "mixed", "corrupt"} <= set(PROFILES)
        with pytest.raises(ConfigError):
            generate_case(0, 0, "volcanic", "aio")

    def test_outcome_matching(self):
        result = FuzzResult(ok=True, checksum="cafe0001", grants=4)
        assert result.matches({"ok": True, "checksum": "cafe0001"})
        assert not result.matches({"checksum": "00000000"})


class TestChaosLoop:
    def test_chaos_run_summarizes_each_case(self):
        seen = []
        summaries = fuzz_run(
            0, 2, "crash", backend="aio",
            on_result=lambda i, case, result: seen.append((i, case.label)))
        assert len(summaries) == 2
        assert [s["index"] for s in summaries] == [0, 1]
        for summary in summaries:
            assert summary["ok"], summary
            assert len(summary["checksum"]) == 8
        assert [i for i, _ in seen] == [0, 1]


class TestShrinkRuntimeCase:
    def test_unmeetable_window_is_shrunk_saved_and_replayed(self, tmp_path):
        """The shrinker had never run on a runtime case: a fat schedule
        with an unmeetable recovery window must minimize to the crash and
        a request that waits on it, under the same invariant, and the
        saved file must replay to the recorded outcome."""
        case = scenario(
            n=5, recovery_window=0.05,
            requests=[(0.3, 1), (0.6, 3), (1.2, 2), (1.4, 4), (2.5, 1),
                      (3.0, 3)],
            faults=[{"t": 0.4, "op": "partition", "a": 1, "b": 2},
                    {"t": 0.7, "op": "heal", "a": 1, "b": 2},
                    {"t": 1.0, "op": "crash", "a": 0}],
        )
        result = run_case(case)
        assert result.violation["invariant"] == "bounded-recovery"
        small, small_result, attempts = shrink(case, result)
        assert attempts > 0
        assert small_result.violation["invariant"] == "bounded-recovery"
        assert small.event_count() < case.event_count()
        assert small.event_count() <= 3
        assert small.backend == "aio"
        path = str(tmp_path / "case.json")
        small.save(path, outcome=small_result.outcome())
        loaded, recorded = FuzzCase.load(path)
        assert loaded == small
        assert run_case(loaded).outcome() == recorded


class TestCli:
    def test_cli_batch_and_replay(self, tmp_path):
        batch = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--backend", "aio",
             "--seed", "0", "--runs", "1", "--profile", "crash",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert batch.returncode == 0, batch.stderr
        assert "1/1 runs clean" in batch.stdout
        # Replay a saved case file and check the recorded outcome.
        case = generate_case(0, 0, "crash", "aio")
        result = run_case(case)
        path = str(tmp_path / "replay.json")
        case.save(path, outcome=result.outcome())
        replay = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--replay", path],
            capture_output=True, text=True)
        assert replay.returncode == 0, replay.stderr
        assert result.checksum in replay.stdout
