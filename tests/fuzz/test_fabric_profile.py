"""The fabric fuzz profile: many multiplexed lanes, per-lane oracles, a
per-key token census at the horizon, and lane-dropping shrinks."""

from unittest import mock

import pytest

from repro.core import BinarySearchCore
from repro.errors import ConfigError
from repro.fuzz import FuzzCase, fuzz_run, generate_case, run_case, shrink


class TestGeneration:
    def test_same_triple_same_case(self):
        assert (generate_case(11, 3, "fabric")
                == generate_case(11, 3, "fabric"))

    def test_shape(self):
        for index in range(5):
            case = generate_case(11, index, "fabric")
            assert case.kind == "fabric"
            assert 8 <= len(case.keys) <= 32
            assert case.label == f"fabric/k{len(case.keys)}"
            assert case.requests == []  # arrivals live in keyed_requests
            assert len(case.keyed_requests) >= 20
            assert len({spec["key"] for spec in case.keys}) == len(case.keys)

    def test_roundtrip(self, tmp_path):
        case = generate_case(11, 2, "fabric")
        path = tmp_path / "case.json"
        case.save(str(path), outcome={"ok": True, "checksum": "00000000"})
        loaded, outcome = FuzzCase.load(str(path))
        assert loaded == case
        assert outcome == {"ok": True, "checksum": "00000000"}

    def test_mixed_profile_never_yields_fabric(self):
        # "mixed" predates the fabric kind; widening it would reshuffle
        # every pinned mixed-profile case.
        kinds = {generate_case(11, i, "mixed").kind for i in range(10)}
        assert "fabric" not in kinds


class TestValidation:
    def test_empty_keys_rejected(self):
        with pytest.raises(ConfigError):
            FuzzCase(seed=1, kind="fabric", keys=[]).validate()

    def test_out_of_range_key_index_rejected(self):
        case = FuzzCase(seed=1, kind="fabric",
                        keys=[{"key": "a", "protocol": "ring", "n": 3}],
                        keyed_requests=[(5.0, 1, 0)])
        with pytest.raises(ConfigError):
            case.validate()

    def test_fault_naming_missing_lane_rejected(self):
        case = FuzzCase(seed=1, kind="fabric",
                        keys=[{"key": "a", "protocol": "ring", "n": 3}],
                        faults=[{"t": 5.0, "op": "crash", "a": 0, "k": 2}])
        with pytest.raises(ConfigError):
            case.validate()


class TestRunDeterminism:
    def test_case_checksum_stable_across_runs(self):
        case = generate_case(13, 1, "fabric")
        first, second = run_case(case), run_case(case)
        assert first.checksum == second.checksum
        assert first.events == second.events
        assert first.ok == second.ok

    def test_fuzz_run_profile_deterministic(self):
        assert fuzz_run(37, 2, "fabric") == fuzz_run(37, 2, "fabric")


def _duplicating_patch():
    """Seeded on the binary_search row alone: every row forwards through
    the machine's one ``_forward``, so patching it there would break all
    four lanes and leave the shrinker nothing innocent to drop."""
    real = BinarySearchCore._forward

    def broken(self):
        real(self)
        self.has_token = True  # canary: token duplicated

    return mock.patch.object(BinarySearchCore, "_forward", broken)


def _fat_fabric_case():
    """Four lanes, only one of them binary_search — the canary's target.
    The shrinker should peel the innocent lanes away."""
    keys = [
        {"key": "lock/ring", "protocol": "ring", "n": 3,
         "config": {"idle_pause": 10.0}},
        {"key": "lock/lin", "protocol": "linear_search", "n": 4},
        {"key": "lock/bs", "protocol": "binary_search", "n": 4},
        {"key": "lock/dir", "protocol": "directed_search", "n": 3},
    ]
    keyed_requests = sorted(
        (float(5 + 7 * i), i % 4, i % 3) for i in range(12)
    )
    return FuzzCase(
        seed=23, kind="fabric", keys=keys, keyed_requests=keyed_requests,
        faults=[{"t": 90.0, "op": "partition", "a": 0, "b": 1, "k": 0},
                {"t": 110.0, "op": "heal", "a": 0, "b": 1, "k": 0}],
        horizon=400.0, max_events=40_000,
    )


class TestShrinkFabric:
    def test_shrink_drops_innocent_lanes(self):
        with _duplicating_patch():
            case = _fat_fabric_case()
            result = run_case(case)
            assert not result.ok
            small, small_result, attempts = shrink(case, result)
            assert attempts > 0
            assert not small_result.ok
            assert (small_result.violation["invariant"]
                    == result.violation["invariant"])
            # Only the binary_search lane can trip the canary.
            assert len(small.keys) == 1
            assert small.keys[0]["protocol"] == "binary_search"
            assert small.event_count() < case.event_count()
            assert all(k == 0 for _t, k, _n in small.keyed_requests)

    def test_shrunk_fabric_case_replays_standalone(self):
        with _duplicating_patch():
            case = _fat_fabric_case()
            small, small_result, _ = shrink(case, run_case(case))
            replayed = run_case(small)
            assert replayed.ok == small_result.ok
            assert replayed.checksum == small_result.checksum


class TestCensusOracle:
    def test_quiet_fabric_passes_census(self):
        case = FuzzCase(
            seed=9, kind="fabric",
            keys=[{"key": "a", "protocol": "binary_search", "n": 3},
                  {"key": "b", "protocol": "ring", "n": 3,
                   "config": {"idle_pause": 10.0}}],
            keyed_requests=[(5.0, 0, 1), (6.0, 1, 2), (30.0, 0, 2)],
            horizon=300.0, max_events=20_000,
        )
        result = run_case(case)
        assert result.ok
        assert result.grants == 3
