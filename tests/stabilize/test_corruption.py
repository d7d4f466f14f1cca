"""Corruption injector unit tests: deterministic replay, field coverage,
typed rejection of unknown kinds — plus the fuzz-case loader contract
(satellite: unknown fault kinds raise FuzzCaseError naming the kind)."""

import pytest

from repro.core.cluster import Cluster
from repro.errors import ConfigError, FuzzCaseError
from repro.faults.corruption import CORRUPTION_KINDS, corrupt_core
from repro.fuzz.case import FuzzCase

N = 5


def warm_cluster(protocol: str = "stabilizing", horizon: float = 30.0):
    """A small ring run long enough for the token to circulate, so every
    corruption kind has real state to perturb."""
    cluster = Cluster.build(protocol, N, seed=7, sanitize=False)
    for node in range(N):
        cluster.request(node)
    cluster.run(until=horizon)
    return cluster


class TestInjector:
    def test_every_kind_mutates_some_field(self):
        # The stabilizing core carries every field the injector targets,
        # so each kind must report at least one mutation on any victim.
        cluster = warm_cluster()
        for kind in CORRUPTION_KINDS:
            mutations = corrupt_core(
                cluster.drivers[2].core, kind, arg=123, n=N)
            assert mutations, f"{kind} produced no mutations"

    def test_same_kind_and_arg_is_deterministic(self):
        for kind in CORRUPTION_KINDS:
            first = corrupt_core(warm_cluster().drivers[2].core,
                                 kind, arg=99, n=N)
            second = corrupt_core(warm_cluster().drivers[2].core,
                                  kind, arg=99, n=N)
            assert first == second, kind

    def test_different_args_usually_differ(self):
        # The Knuth mix spreads args: scramble kinds must not collapse
        # every argument onto one mutation.
        outcomes = {
            tuple(corrupt_core(warm_cluster().drivers[1].core,
                               "scramble_clock", arg=arg, n=N))
            for arg in range(8)
        }
        assert len(outcomes) > 1

    def test_unknown_kind_raises_config_error(self):
        cluster = warm_cluster()
        with pytest.raises(ConfigError, match="bit_rot"):
            corrupt_core(cluster.drivers[0].core, "bit_rot", arg=0, n=N)

    def test_duplicate_token_conjures_a_unit(self):
        cluster = warm_cluster()
        victim = next(node for node, d in cluster.drivers.items()
                      if not d.core.has_token)
        corrupt_core(cluster.drivers[victim].core, "duplicate_token",
                     arg=5, n=N)
        assert cluster.drivers[victim].core.has_token

    def test_delete_token_erases_the_lineage(self):
        cluster = warm_cluster()
        for node in range(N):
            corrupt_core(cluster.drivers[node].core, "delete_token",
                         arg=0, n=N)
        assert cluster.token_census() == 0

    def test_protocol_agnostic_on_plain_cores(self):
        # The injector silently skips fields a core lacks rather than
        # raising: the same schedule must corrupt any registered core.
        cluster = warm_cluster(protocol="binary_search")
        for kind in CORRUPTION_KINDS:
            corrupt_core(cluster.drivers[3].core, kind, arg=42, n=N)


class TestLoaderRejection:
    """The fuzz-case loader names the offending kind in a typed error
    instead of surfacing a bare KeyError from the runner."""

    def base(self, **changes):
        doc = dict(seed=1, kind="impl", protocol="stabilizing", n=4,
                   requests=[[1.0, 0]], faults=[], horizon=50.0)
        doc.update(changes)
        return doc

    def test_unknown_fault_op_names_the_kind(self):
        with pytest.raises(FuzzCaseError) as err:
            FuzzCase.from_dict(self.base(
                faults=[{"t": 5.0, "op": "meteor", "a": 0}]))
        assert err.value.kind == "meteor"
        assert "meteor" in str(err.value)

    def test_unknown_corruption_kind_names_the_kind(self):
        with pytest.raises(FuzzCaseError) as err:
            FuzzCase.from_dict(self.base(
                faults=[{"t": 5.0, "op": "corrupt", "a": 0,
                         "what": "bit_rot", "arg": 1}]))
        assert err.value.kind == "bit_rot"

    def test_corrupt_fault_requires_a_victim_in_range(self):
        with pytest.raises(FuzzCaseError):
            FuzzCase.from_dict(self.base(
                faults=[{"t": 5.0, "op": "corrupt", "a": 99,
                         "what": "delete_token", "arg": 1}]))
        with pytest.raises(FuzzCaseError):
            FuzzCase.from_dict(self.base(
                faults=[{"t": 5.0, "op": "corrupt",
                         "what": "delete_token", "arg": 1}]))

    def test_fabric_fault_missing_lane_is_typed(self):
        doc = dict(seed=1, kind="fabric",
                   keys=[{"key": "a", "protocol": "binary_search", "n": 3}],
                   keyed_requests=[[1.0, 0, 0]],
                   faults=[{"t": 2.0, "op": "crash", "a": 0}],
                   horizon=50.0)
        with pytest.raises(FuzzCaseError) as err:
            FuzzCase.from_dict(doc)
        assert err.value.kind == "crash"

    def test_fuzz_case_error_is_a_config_error(self):
        assert issubclass(FuzzCaseError, ConfigError)


def test_stabilize_layer_never_imports_random():
    # Stronger than the repo-wide RNG audit: the injector and the
    # stabilize package derive all variation from the Knuth hash of the
    # case-supplied argument, so they must not touch `random` at all.
    import repro.faults.corruption as corruption
    import repro.stabilize.bound as bound
    import repro.core.stabilization as score
    import repro.stabilize.runner as srunner
    for module in (corruption, bound, score, srunner):
        assert "random" not in open(module.__file__).read().split(
            '"""', 2)[2], module.__name__
