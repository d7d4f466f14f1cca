"""Determinism pins for the fixed scenarios no other test builds.

Each scenario runs once, untimed, and must reproduce its counts bit for
bit: a change that moves one of them changed behaviour, whatever it did
to speed.  The other fixed-scenario pins sit in the tests that already
build their scenario — the loaded 64-node cluster on both engines
(``fastsim/test_engine.py``), System Token n = 4
(``specs/test_modelcheck.py``), persistent-set DPOR
(``verify/test_dpor.py``), the timer storm (``sim/test_kernel.py``), the
Figure-9 cell and the runtime's recovery times
(``analysis/test_analysis.py``), and stabilization at n = 9
(``stabilize/test_convergence.py``).
"""

import hashlib
import zlib

import pytest

from repro.cli import main
from repro.core.config import ProtocolConfig
from repro.fabric import TokenFabric
from repro.specs import system_binary_search as bs
from repro.specs.properties import prefix_property, token_uniqueness
from repro.trs.matching import match
from repro.trs.terms import Atom, Bag, Struct, Var
from repro.workload.keyed import ClosedLoopKeyedWorkload


def trs_reduction_n5():
    """A safety-checked random reduction of System BinarySearch (n = 5):
    the digest covers the full trace (rule sequence and final state), not
    just the step count."""
    rewriter, initial = bs.make_system(5)
    reduction = rewriter.random_reduction(
        initial, 50, seed=7, weights={"1": 1.2, "2": 3.0, "5": 0.5})
    reduction.check_invariant(prefix_property)
    reduction.check_invariant(token_uniqueness)
    trace = "|".join(step.rule_name for step in reduction.steps)
    digest = hashlib.md5(
        (trace + "||" + repr(reduction.final)).encode()).hexdigest()[:16]
    return {"steps": len(reduction), "trace_md5": digest}


def trs_bag_match_n12():
    """Indexed AC bag matching: four pattern shapes (plain, non-linear
    join, ground-argument filter, cross-functor join) enumerated against a
    15-element ground bag (12 ``f``/2 items + 3 ``g``/1 items)."""
    target = Bag(
        [Struct("f", [Atom(i % 4), Atom(i)]) for i in range(12)]
        + [Struct("g", [Atom(i)]) for i in range(3)])
    rest = Var("R")
    patterns = [
        Bag([Struct("f", [Var("a"), Var("b")])], rest=rest),
        Bag([Struct("f", [Var("a"), Var("b")]),
             Struct("f", [Var("a"), Var("c")])], rest=rest),
        Bag([Struct("f", [Atom(2), Var("b")]),
             Struct("g", [Var("c")])], rest=rest),
        Bag([Struct("f", [Var("a"), Var("b")]),
             Struct("g", [Var("a")])], rest=rest),
    ]
    return {"matches": [sum(1 for _ in match(pattern, target))
                        for pattern in patterns]}


def fabric_10k():
    """The object fabric at scale: 10,000 binary-search lanes (n = 3 each,
    30,000 cores) on one kernel, a closed-loop Zipf population in the
    saturation regime, one million grants.  The CRC over the per-key
    grant distribution catches a change in *which* keys won."""
    fabric = TokenFabric(seed=2001)
    config = ProtocolConfig(idle_pause=10_000.0)
    for k in range(10_000):
        fabric.add_key(f"lock/{k:05d}", protocol="binary_search", n=3,
                       config=config)
    fabric.add_workload(ClosedLoopKeyedWorkload(clients=24_000,
                                                think_time=2.0, s=1.2))
    fabric.run(grants=1_000_000)
    metrics = fabric.metrics
    lane_crc = 0
    for stat in metrics.stats:
        lane_crc = zlib.crc32(b"%d|" % stat.grants, lane_crc)
    return {
        "keys": len(metrics.stats),
        "events": fabric.executed_total,
        "messages": fabric.sent_total,
        "grants": metrics.total_grants,
        "requests": metrics.total_requests,
        "p50_us": round(metrics.percentile(50.0) * 1e6),
        "p99_us": round(metrics.percentile(99.0) * 1e6),
        "lane_grants_crc": f"{lane_crc & 0xFFFFFFFF:08x}",
    }


def _fig10_cell_counts(engine, seed):
    """One engine's counts at the check point of the ledger's Figure-10
    cell, built as ``benchmarks/ledger/sim_child.py`` builds it."""
    from repro import Cluster, FixedRateWorkload
    from repro.fastsim import FastCluster

    cluster = (Cluster if engine == "object" else FastCluster).build(
        "binary_search", n=100, seed=seed)
    cluster.add_workload(FixedRateWorkload(mean_interval=10.0))
    cluster.run(rounds=300)
    if engine == "object":
        events, messages = cluster.sim.executed_total, cluster.messages.total
        grants = cluster.responsiveness.grants()
    else:
        events, messages = cluster.executed_total, cluster.sent_total
        grants = cluster.grants
    return (events, messages, grants, cluster.rounds,
            cluster.responsiveness.average_responsiveness())


def fig10_cell_n100():
    """The ledger's Figure-10 cell (``binary_search``, n = 100, Poisson
    arrivals every 10 delays, 300 circulations) on both engines: seed 2001
    is the ledger's pinned check point (``run.py::PINNED``), seed 7 a
    second seed the engines must agree on.  Average responsiveness is a
    float compared exactly."""
    return {f"{engine}@{seed}": _fig10_cell_counts(engine, seed)
            for seed in (2001, 7) for engine in ("object", "fast")}


_FIG10_2001 = (116880, 109911, 6858, 300, 7.753074617219832)
_FIG10_7 = (131760, 123754, 7844, 300, 8.079530691604285)


@pytest.mark.parametrize("scenario, expected", [
    pytest.param(
        fig10_cell_n100,
        {"object@2001": _FIG10_2001, "fast@2001": _FIG10_2001,
         "object@7": _FIG10_7, "fast@7": _FIG10_7},
        id="fig10_cell_n100"),
    pytest.param(
        trs_reduction_n5, {"steps": 50, "trace_md5": "1caa3e2107f2dccf"},
        id="trs_reduction_n5"),
    pytest.param(
        trs_bag_match_n12, {"matches": [12, 24, 9, 9]},
        id="trs_bag_match_n12"),
    pytest.param(
        fabric_10k,
        {"keys": 10_000, "events": 3844681, "messages": 2301865,
         "grants": 1000106, "requests": 1544074, "p50_us": 1189207,
         "p99_us": 5656854, "lane_grants_crc": "622ff8ae"},
        id="fabric_10k",
        marks=pytest.mark.slow),  # ~80 s; tier-1 pins the 256-key run below
])
def test_scenario_reproduces_its_counts(scenario, expected):
    assert scenario() == expected


def test_fabric_256_keys_checksum():
    """The same closed-loop fabric and the same counters as ``fabric_10k``,
    folded to one word, at the size the CLI defaults to (0.3 s)."""
    assert main(["fabric", "--keys", "256",
                 "--expect-checksum", "0189883e"]) == 0
