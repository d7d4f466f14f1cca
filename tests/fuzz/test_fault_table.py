"""The one fault table: every op's fields and ranges are checked once, at
validation, and an op a backend cannot apply is a reported skip — never a
``KeyError`` inside a runner, never a silent no-op."""

import pytest

from repro.errors import FuzzCaseError
from repro.fuzz import FAULT_OPS, FuzzCase, run_case, skip_reason
from repro.fuzz.runner import _AIO_FAULTS, _SIM_FAULTS


def impl_case(**changes) -> FuzzCase:
    base = dict(seed=1, protocol="fault_tolerant", n=3,
                requests=[(1.0, 0), (30.0, 2)], horizon=200.0)
    base.update(changes)
    return FuzzCase(**base)


class TestValidationGaps:
    def test_crash_of_an_unknown_node_is_rejected(self):
        # Used to pass validate() and die scheduling the fault: KeyError 99.
        with pytest.raises(FuzzCaseError) as err:
            impl_case(faults=[{"t": 5, "op": "crash", "a": 99}]).validate()
        assert err.value.kind == "crash"

    def test_fault_without_a_time_is_rejected(self):
        # Used to pass validate() and die in the runner: KeyError 't'.
        with pytest.raises(FuzzCaseError) as err:
            impl_case(faults=[{"op": "crash", "a": 1}]).validate()
        assert "'t'" in str(err.value)

    def test_every_op_names_its_missing_field(self):
        for op, (fields, _targets) in FAULT_OPS.items():
            for missing in fields:
                fault = {"t": 1.0, "op": op, "a": 0, "b": 1,
                         "what": "delete_token", "arg": 1}
                del fault[missing]
                with pytest.raises(FuzzCaseError):
                    impl_case(protocol="stabilizing",
                              faults=[fault]).validate()

    def test_token_loss_on_a_fabric_lane_is_applied(self):
        # Used to pass validation and hit no branch in the fabric runner:
        # the fault silently never happened and the run said ok.
        def fabric(faults):
            return FuzzCase(
                seed=3, kind="fabric",
                keys=[{"key": "a", "protocol": "fault_tolerant", "n": 4,
                       "config": {"regen_timeout": 40.0,
                                  "census_window": 5.0}}],
                keyed_requests=[(5.0, 0, 1), (60.0, 0, 2)],
                faults=faults, horizon=400.0)

        quiet = run_case(fabric([]))
        lossy = run_case(fabric([{"t": 20.0, "op": "token_loss", "k": 0}]))
        assert quiet.ok and lossy.ok
        assert lossy.checksum != quiet.checksum  # the token really vanished
        assert lossy.grants == quiet.grants      # and was regenerated

    def test_fabric_lane_cannot_take_a_whole_cluster_op(self):
        with pytest.raises(FuzzCaseError) as err:
            FuzzCase(seed=3, kind="fabric",
                     keys=[{"key": "a", "protocol": "ring", "n": 3}],
                     faults=[{"t": 1.0, "op": "corrupt", "a": 0, "k": 0,
                              "what": "delete_token", "arg": 1}]).validate()
        assert err.value.kind == "corrupt"


class TestSupportMatrix:
    def test_appliers_cover_exactly_what_the_table_grants(self):
        def granted(target):
            return {op for op, (_f, targets) in FAULT_OPS.items()
                    if target in targets}

        assert granted("des") == set(_SIM_FAULTS)
        assert granted("fabric") == set(_SIM_FAULTS) - {"corrupt"}
        assert granted("wire") == set(_AIO_FAULTS)
        assert granted("aio") == set(_AIO_FAULTS) - {"reset"}
        assert granted("fast") == set()

    @pytest.mark.parametrize("op,backend", [
        ("reset", "des"), ("reset", "aio"), ("recover", "aio"),
        ("token_loss", "wire"), ("crash", "fast")])
    def test_unsupported_op_is_a_skip_with_the_reason(self, op, backend):
        fault = {"t": 1.0, "op": op, "a": 0}
        case = impl_case(faults=[fault], backend=backend)
        reason = skip_reason(case)
        assert reason and (op in reason or "fault" in reason)
        result = run_case(case)
        assert result.skipped == reason
        assert not result.ok and result.violation is None
        assert result.outcome() == {"ok": False, "skipped": reason}

    def test_group_partition_runs_on_des_too(self):
        case = impl_case(n=4, faults=[
            {"t": 5.0, "op": "partition", "group_a": [0], "group_b": [1, 2]},
            {"t": 20.0, "op": "heal", "a": 0, "b": 1},
            {"t": 20.0, "op": "heal", "a": 0, "b": 2}])
        assert run_case(case).ok

    def test_heal_all_heals_a_group_partition_on_des(self):
        # Node 0 is cut off from 1 and 2 while all four ask; heal_all
        # opens every link and flushes what was parked on them.
        requests = [(2.0, 0), (6.0, 1), (7.0, 2), (8.0, 3)]
        case = impl_case(n=4, requests=requests, faults=[
            {"t": 5.0, "op": "partition", "group_a": [0], "group_b": [1, 2]},
            {"t": 20.0, "op": "heal_all"}])
        assert skip_reason(case) is None
        result = run_case(case)
        assert result.ok
        assert result.grants == len(requests)

    def test_load_block_needs_the_wire_backend(self):
        case = impl_case(requests=[], closed_loop={"clients": 1, "ops": 5})
        assert "wire" in skip_reason(case)
