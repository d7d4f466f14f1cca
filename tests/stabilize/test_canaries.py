"""Oracle canaries: seed a non-convergent bug into the stabilizing core
and prove the convergence oracle *fails* the run — the oracle is only
trustworthy if it can lose.  Also pins the shrinker contract: corruption
counterexamples minimize to a handful of events."""

from repro.core.effects import Send
from repro.core.messages import TokenMsg
from repro.fuzz.case import FuzzCase
from repro.fuzz.runner import run_case
from repro.fuzz.shrink import shrink
from repro.core import StabilizingCore


def stab_case(**changes):
    base = dict(
        seed=13, kind="impl", protocol="stabilizing", n=5,
        delay={"kind": "constant", "delay": 1.0},
        config={"trap_gc": "rotation", "regen_timeout": 40.0,
                "census_window": 5.0, "loan_timeout": 30.0,
                "stabilize_watch": 20.0},
        requests=[(float(t * 15 + 1), (t * 3 + 1) % 5) for t in range(10)],
        faults=[{"t": 50.0, "op": "corrupt", "a": 2,
                 "what": "duplicate_token", "arg": 7}],
        horizon=700.0, label="canary")
    base.update(changes)
    return FuzzCase(**base).validate()


def leaky_absorb(self, msg, now):
    """Seeded bug #1: the 'correction' rule that corrects nothing — it
    keeps the local token AND forwards the encountered copy onward, so
    two units rotate forever (k tokens -> 1 never happens)."""
    self.absorptions += 1
    self.has_token = True
    self.lent_to = None
    if isinstance(msg, TokenMsg):
        return [Send(self.hop(1), msg)]
    return []


def trigger_happy_deadline(self, probe_seq, now):
    """Seeded bug #2: an oscillating reset — the watchdog mints on every
    census deadline regardless of what the census saw, reinjecting fresh
    tokens into an already-legitimate run."""
    self._watch_census = None
    return self._watch_mint(now, self.last_visit)


class TestCanaries:
    def test_healthy_core_passes_the_same_case(self):
        # Control: without a seeded bug the case converges, so the
        # failures below are attributable to the bug alone.
        result = run_case(stab_case())
        assert result.ok, result.violation

    def test_two_token_preserving_correction_is_caught(self, monkeypatch):
        monkeypatch.setattr(StabilizingCore, "_absorb", leaky_absorb)
        result = run_case(stab_case())
        assert not result.ok
        assert result.violation["invariant"] in ("convergence", "closure")

    def test_oscillating_reset_is_caught(self, monkeypatch):
        monkeypatch.setattr(StabilizingCore, "_on_watch_deadline",
                            trigger_happy_deadline)
        result = run_case(stab_case())
        assert not result.ok
        assert result.violation["invariant"] in ("convergence", "closure")

    def test_shrinker_minimizes_corruption_counterexample(self, monkeypatch):
        monkeypatch.setattr(StabilizingCore, "_absorb", leaky_absorb)
        # A deliberately fat schedule: 24 requests + 2 corruptions.
        case = stab_case(
            requests=[(float(t * 8 + 1), (t * 3 + 1) % 5)
                      for t in range(24)],
            faults=[{"t": 50.0, "op": "corrupt", "a": 2,
                     "what": "duplicate_token", "arg": 7},
                    {"t": 120.0, "op": "corrupt", "a": 4,
                     "what": "scramble_clock", "arg": 9}])
        result = run_case(case)
        assert not result.ok
        invariant = result.violation["invariant"]
        final_case, final_result, attempts = shrink(case, result)
        assert not final_result.ok
        assert final_result.violation["invariant"] == invariant
        assert final_case.event_count() <= 20, final_case.event_count()
        assert attempts > 0
