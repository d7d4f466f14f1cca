"""The protocol table is the one place protocols are named and composed:
every other protocol list is a view of it, a row's class is data over
shared parts, and a part that a row leaves out leaves nothing behind."""

import inspect

import pytest

from repro.cli import _build_parser, main
from repro.core.cluster import Cluster, _registry
from repro.core.config import ProtocolConfig
from repro.core.machine import TokenMachine
from repro.core.parts import (
    Advertise,
    DelegatedSearch,
    DirectedSearch,
    DirectHandOver,
    DirectSearch,
    LinearSearch,
    RotationOnly,
)
from repro.core.protocols import PROTOCOLS, REGISTRY, ROWS, assemble
from repro.core.regeneration import Regeneration
from repro.core.stabilization import Stabilization
from repro.fuzz import IMPL_PROTOCOLS, FuzzCase
from repro.lint.registry import run_dynamic
from repro.workload.generators import SingleShotWorkload

PARTS = {LinearSearch, DelegatedSearch, DirectedSearch, DirectSearch,
         Advertise, DirectHandOver, RotationOnly, Regeneration, Stabilization}


def _protocol_choices():
    """The ``--protocol`` choices of every subcommand that has the flag."""
    subparsers = next(a for a in _build_parser()._actions
                      if a.dest == "command")
    return {name: action.choices
            for name, sub in subparsers.choices.items()
            for action in sub._actions if action.dest == "protocol"}


def test_every_protocol_list_is_a_view_of_the_table():
    assert PROTOCOLS == tuple(ROWS) == tuple(_registry())
    assert _registry() is REGISTRY
    choices = _protocol_choices()
    assert set(choices) == {"simulate", "fabric", "serve"}
    assert all(c is PROTOCOLS for c in choices.values())
    default = inspect.signature(run_dynamic).parameters["protocols"].default
    assert default is PROTOCOLS
    assert IMPL_PROTOCOLS == tuple(n for n in ROWS if ROWS[n].fuzz_drawn)
    # The drawn order pins every random clean/faults case: do not reorder.
    assert IMPL_PROTOCOLS == (
        "ring", "linear_search", "binary_search", "directed_search",
        "push", "hybrid", "fault_tolerant")
    for name in PROTOCOLS:
        FuzzCase(seed=0, protocol=name, n=3).validate()


def test_cli_accepts_every_registered_protocol(capsys):
    # ``stabilizing`` used to be an argparse error although the registry,
    # service_config and the corrupt profile all knew it.
    assert main(["simulate", "--protocol", "stabilizing", "-n", "8",
                 "--rounds", "5"]) == 0
    assert "stabilizing" in capsys.readouterr().out


def test_a_row_is_data_over_shared_parts():
    for name, row in ROWS.items():
        cls = REGISTRY[name]
        own = {k: v for k, v in vars(cls).items()
               if k not in ("__module__", "__doc__")}
        assert own == {"protocol_name": name, **row.traits}
        assert not any(callable(v) for v in own.values())
        assert cls.__mro__[1:len(row.parts) + 2] == row.parts + (TokenMachine,)


def test_no_part_names_another_as_a_base():
    for part in PARTS:
        named = set(part.__mro__[1:]) & PARTS
        assert named == ({Regeneration} if part is Stabilization else set())
        assert not issubclass(part, TokenMachine)


@pytest.mark.parametrize("protocol", ["binary_search", "directed_search",
                                      "push", "hybrid"])
def test_absent_layers_leave_nothing_behind(protocol):
    cluster = Cluster.build(protocol, n=6, seed=3,
                            config=ProtocolConfig(regen_timeout=30.0))
    cluster.add_workload(SingleShotWorkload([(10.2, 4), (30.7, 2)]))
    cluster.run(until=200, max_events=100_000)
    assert cluster.responsiveness.grants() == 2
    for driver in cluster.drivers.values():
        core = driver.core
        assert core.epoch == 0 and core.suspected == set()
        assert not hasattr(core, "regen_delay_provider")
        assert not hasattr(core, "_watch_census")
    for kind in ("WhoHasMsg", "RegenerateMsg"):
        assert cluster.messages.count(kind) == 0


def test_a_row_without_a_search_part_is_served_by_rotation():
    cluster = Cluster(assemble("rotation_only", ()), 5, seed=1)
    cluster.add_workload(SingleShotWorkload([(10.2, 3)]))
    cluster.run(until=100, max_events=10_000)
    assert cluster.responsiveness.grants() == 1
    assert cluster.messages.cheap == 0
