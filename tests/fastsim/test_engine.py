"""Array-compiled engine vs. the object cluster: bit-identical runs.

These are the engine's own equivalence tests over hand-picked
configurations (the corpus- and matrix-driven sweeps live in
``test_differential.py``): same kernel event count, same send stream
(counts by type and CRC32 digest), same grants, clock, and
responsiveness samples, for both protocols across several round budgets.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, FastSimUnsupportedError
from repro.fastsim import FastCluster, unsupported_reason
from repro.workload.generators import FixedRateWorkload, SingleShotWorkload


def _object_run(protocol, rounds, n=64, seed=3, mean_interval=5.0):
    cluster = Cluster.build(protocol, n, seed=seed, config=ProtocolConfig())
    cluster.add_workload(FixedRateWorkload(mean_interval=mean_interval))
    cluster.run(rounds=rounds)
    samples = cluster.responsiveness.responsiveness_samples
    return {
        "events": cluster.sim.executed_total,
        "messages": cluster.messages.total,
        "by_type": dict(cluster.messages.by_type),
        "now": round(cluster.sim.now, 9),
        "samples": [round(s, 9) for s in samples],
    }


def _fast_run(protocol, rounds, n=64, seed=3, mean_interval=5.0):
    cluster = FastCluster.build(protocol, n, seed=seed)
    cluster.add_workload(FixedRateWorkload(mean_interval=mean_interval))
    cluster.run(rounds=rounds)
    samples = cluster.responsiveness.responsiveness_samples
    return {
        "events": cluster.executed_total,
        "messages": cluster.sent_total,
        "by_type": dict(cluster.sent_by_type),
        "now": round(cluster.now, 9),
        "samples": [round(s, 9) for s in samples],
    }


@pytest.mark.parametrize("protocol", ["ring", "binary_search"])
@pytest.mark.parametrize("rounds", [2, 10])
def test_fast_engine_matches_object_cluster(protocol, rounds):
    assert _fast_run(protocol, rounds) == _object_run(protocol, rounds)


def test_loaded_binary_search_pinned_counts():
    """The loaded 64-node cluster at 40 rounds, on both engines: exact
    event and message counts, so a change that moves simulated behaviour
    fails here before it is read as a throughput win."""
    for run in (_object_run, _fast_run):
        outcome = run("binary_search", 40)
        assert outcome["events"] == 117920
        assert outcome["messages"] == 106047
        assert outcome["by_type"] == {"TokenMsg": 2560, "GimmeMsg": 47007,
                                      "LoanMsg": 28240,
                                      "LoanReturnMsg": 28240}


def test_single_shot_workload_matches():
    events = [(3.0, 1), (3.0, 5), (40.0, 2), (90.0, 7), (90.5, 7)]
    obj = Cluster.build("binary_search", 8, seed=1, config=ProtocolConfig())
    obj.add_workload(SingleShotWorkload(events))
    obj.run(until=400.0)
    fast = FastCluster.build("binary_search", 8, seed=1)
    fast.add_workload(SingleShotWorkload(events))
    fast.run(until=400.0)
    assert fast.executed_total == obj.sim.executed_total
    assert fast.sent_total == obj.messages.total
    assert fast.now == obj.sim.now


def test_run_bounds_match_object_semantics():
    """`until` moves the clock to the bound without popping later events,
    exactly like the kernel; a second run continues from there."""
    fast = FastCluster.build("ring", 16, seed=2)
    fast.add_workload(FixedRateWorkload(mean_interval=4.0))
    fast.run(until=50.0)
    assert fast.now == 50.0
    before = fast.executed_total
    fast.run(until=120.0)
    assert fast.now == 120.0
    assert fast.executed_total > before


def test_unsupported_configurations_raise():
    with pytest.raises(FastSimUnsupportedError):
        FastCluster.build("linear_search", 8)
    with pytest.raises(FastSimUnsupportedError):
        FastCluster.build("binary_search", 8,
                          config=ProtocolConfig(hold_until_release=True))
    assert unsupported_reason("push", ProtocolConfig()) is not None
    assert unsupported_reason("ring", ProtocolConfig()) is None
    with pytest.raises(ConfigError):
        FastCluster.build("ring", 0)


def test_send_checksum_requires_digest():
    cluster = FastCluster.build("ring", 4, seed=0)
    with pytest.raises(FastSimUnsupportedError):
        _ = cluster.send_checksum
    digested = FastCluster.build("ring", 4, seed=0, digest=True)
    digested.request(2)
    digested.run(until=30.0)
    assert len(digested.send_checksum) == 8


def test_process_level_caches_are_value_pure():
    """Back-to-back runs with different piggyback widths must not bleed
    memoized merges into each other (the memo is partitioned by width)."""
    outcomes = []
    for piggyback in (2, 8, 2):
        cluster = FastCluster.build(
            "binary_search", 16, seed=5,
            config=ProtocolConfig(served_piggyback=piggyback))
        cluster.add_workload(FixedRateWorkload(mean_interval=3.0))
        cluster.run(rounds=6)
        outcomes.append((cluster.executed_total, cluster.sent_total,
                         cluster.grants))
    assert outcomes[0] == outcomes[2]
