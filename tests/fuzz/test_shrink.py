"""Shrinker behaviour: minimized cases stay failing, stay deterministic,
and actually get smaller."""

from unittest import mock

import pytest

from repro.core.machine import TokenMachine
from repro.fuzz import FuzzCase, run_case, shrink


def _duplicating_patch():
    real = TokenMachine._forward

    def broken(self):
        real(self)
        self.has_token = True  # canary: token duplicated

    return mock.patch.object(TokenMachine, "_forward", broken)


def _fat_case():
    """A deliberately oversized failing schedule for the canary."""
    return FuzzCase(
        seed=23, protocol="binary_search", n=6,
        delay={"kind": "uniform", "low": 0.5, "high": 2.0},
        requests=[(float(5 + 3 * i), i % 6) for i in range(12)],
        faults=[{"op": "partition", "t": 90.0, "a": 0, "b": 3},
                {"op": "heal", "t": 110.0, "a": 0, "b": 3}],
        horizon=400.0, max_events=20_000,
    )


class TestShrink:
    def test_minimized_case_still_fails_same_invariant(self):
        with _duplicating_patch():
            case = _fat_case()
            result = run_case(case)
            assert not result.ok
            small, small_result, attempts = shrink(case, result)
            assert attempts > 0
            assert not small_result.ok
            assert small_result.violation["invariant"] == \
                result.violation["invariant"]

    def test_minimized_case_is_smaller(self):
        with _duplicating_patch():
            case = _fat_case()
            result = run_case(case)
            small, small_result, _ = shrink(case, result)
            assert small.event_count() <= case.event_count()
            assert small.n <= case.n
            assert small.horizon <= case.horizon
            assert small.max_events <= case.max_events
            # The canary fires on the very first forward: everything
            # shrinks away.
            assert small.event_count() <= 20

    def test_shrink_is_deterministic(self):
        with _duplicating_patch():
            case = _fat_case()
            result = run_case(case)
            a, ra, _ = shrink(case, result)
            b, rb, _ = shrink(case, result)
            assert a == b
            assert ra.checksum == rb.checksum

    def test_shrunk_case_replays_outside_the_shrinker(self):
        """The minimized case is self-contained: a fresh run_case (no
        shrinker machinery) reproduces the identical outcome."""
        with _duplicating_patch():
            case = _fat_case()
            small, small_result, _ = shrink(case, run_case(case))
            replayed = run_case(small)
            assert replayed.ok == small_result.ok
            assert replayed.checksum == small_result.checksum
            assert replayed.violation["invariant"] == \
                small_result.violation["invariant"]

    def test_shrink_roundtrips_through_json(self, tmp_path):
        with _duplicating_patch():
            case = _fat_case()
            small, small_result, _ = shrink(case, run_case(case))
            path = tmp_path / "shrunk.json"
            small.save(str(path), outcome=small_result.outcome())
            loaded, outcome = FuzzCase.load(str(path))
            assert run_case(loaded).matches(outcome)

    def test_passing_case_is_rejected(self):
        """shrink() refuses a green case outright — there is nothing to
        minimize toward."""
        case = FuzzCase(
            seed=29, protocol="ring", n=3,
            delay={"kind": "constant", "delay": 1.0},
            requests=[(5.0, 1)], horizon=50.0, max_events=2000,
        )
        result = run_case(case)
        assert result.ok
        with pytest.raises(ValueError):
            shrink(case, result)
