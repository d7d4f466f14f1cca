"""Corruption across the real-time surfaces: the ``corrupt`` profile on
the ``aio`` backend under the convergence verdict, and the fault
validation a ``wire`` service run shares with it."""

import pytest

from repro.errors import ConfigError
from repro.fuzz import FuzzCase, generate_case, run_case, skip_reason
from repro.core import StabilizingCore
from repro.wire.smoke import smoke_case

from .test_canaries import leaky_absorb


def corrupt_scenario(**changes) -> FuzzCase:
    base = dict(
        seed=5, n=4, delay={"kind": "constant", "delay": 0.01},
        loss_rate=0.0, recovery_window=8.0, protocol="stabilizing",
        requests=[(0.5, 1), (1.5, 3), (3.0, 2)],
        faults=[{"t": 1.0, "op": "corrupt", "a": 2,
                 "what": "duplicate_token", "arg": 11},
                {"t": 2.0, "op": "corrupt", "a": 0,
                 "what": "scramble_stamp", "arg": 4}],
        horizon=12.0, label="handmade-corrupt", backend="aio",
        # Sized on a token that parks for 2 delays: at the served pause
        # of 10, node 2 holds the token at t = 1.0, so the conjured
        # "duplicate" is the token itself and the canary below would
        # test no reduction at all.
        config={"idle_pause": 2.0})
    base.update(changes)
    return FuzzCase(**base).validate()


class TestChaosCorrupt:
    def test_generated_corrupt_case_targets_the_stabilizing_core(self):
        case = generate_case(3, 0, "corrupt", "aio")
        assert case.protocol == "stabilizing"
        assert any(f["op"] == "corrupt" for f in case.faults)

    def test_corrupt_scenario_converges(self):
        result = run_case(corrupt_scenario())
        assert result.ok, result.violation
        assert result.grants == 3
        assert result.violation is None
        # Judged by the same closure + convergence verdict as a des run:
        # the initial state and each corruption opened an episode.
        assert result.stabilization["injections"] == 2
        assert result.stabilization["episodes"] >= 1

    def test_seeded_non_convergence_is_caught_on_the_runtime(self, monkeypatch):
        # The convergence verdict on the runtime can lose: a correction
        # rule that keeps both tokens leaves two units rotating for good.
        monkeypatch.setattr(StabilizingCore, "_absorb", leaky_absorb)
        result = run_case(corrupt_scenario())
        assert not result.ok
        assert result.violation["invariant"] in ("convergence", "closure")

    def test_corrupt_fault_demands_the_stabilizing_protocol(self):
        case = corrupt_scenario(protocol="fault_tolerant")
        assert "stabilizing" in skip_reason(case)
        result = run_case(case)
        assert result.skipped == skip_reason(case)
        assert not result.ok and result.violation is None

    def test_unknown_corruption_kind_rejected(self):
        with pytest.raises(ConfigError):
            corrupt_scenario(faults=[{"t": 1.0, "op": "corrupt", "a": 2,
                                      "what": "bit_rot", "arg": 11}])


CORRUPT = {"t": 1.0, "op": "corrupt", "a": 0, "what": "delete_token",
           "arg": 3}


class TestWireValidation:
    def test_corrupt_fault_accepted_on_stabilizing(self):
        case = smoke_case(n=3, protocol="stabilizing", faults=[CORRUPT])
        assert skip_reason(case) is None

    def test_corrupt_fault_rejected_elsewhere(self):
        case = smoke_case(n=3, protocol="fault_tolerant", faults=[CORRUPT])
        assert "stabilizing" in skip_reason(case)

    def test_bad_victim_rejected(self):
        with pytest.raises(ConfigError):
            smoke_case(n=3, protocol="stabilizing",
                       faults=[dict(CORRUPT, a=9)])
