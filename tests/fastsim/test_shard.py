"""Sharded mega-sim: partition invariance and engine equivalence.

The two load-bearing claims of :mod:`repro.fastsim.shard`:

1. a one-segment run is bit-identical to the single-process compiled
   engine (counts *and* the order-sensitive send-stream CRC);
2. the merged outcome is invariant under the partition — 1, 2, 3, or 4
   segments, inline or real worker processes, agree checksum for
   checksum.

Together they pin the sharded run to the object cores transitively: the
engine is differentially tested against them, the segment loop against
the engine, the partitions against each other.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, FastSimUnsupportedError
from repro.fastsim import FastCluster, ShardedRingSim, mega_requests
from repro.fastsim.shard import plan_segments

N, HORIZON = 600, 2500.0
REQUESTS = mega_requests(N, seed=11, count=48, horizon=HORIZON)


def _sharded(shards, processes=False, requests=REQUESTS, n=N,
             horizon=HORIZON):
    sim = ShardedRingSim(n, shards, digest=True, processes=processes)
    for time, node in requests:
        sim.request_at(time, node)
    return sim.run(until=horizon)


@pytest.fixture(scope="module")
def reference():
    cluster = FastCluster.build("ring", N, seed=0, digest=True)
    for time, node in REQUESTS:
        cluster.request_at(time, node)
    cluster.run(until=HORIZON)
    return cluster


def test_one_segment_is_bit_identical_to_the_engine(reference):
    result = _sharded(1)
    assert result.executed == reference.executed_total
    assert result.sent == reference.sent_total
    assert result.grants == reference.grants
    assert result.rounds == reference.rounds
    assert f"{result.crc_chain & 0xFFFFFFFF:08x}" == \
        reference.send_checksum
    assert result.responsiveness_samples() == \
        list(reference.responsiveness.responsiveness_samples)


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_partition_invariance(shards, reference):
    result = _sharded(shards)
    assert result.executed == reference.executed_total
    assert result.sent == reference.sent_total
    assert result.grants == reference.grants
    assert result.checksum == _sharded(1).checksum


def test_worker_processes_match_inline(reference):
    inline = _sharded(2, processes=False)
    forked = _sharded(2, processes=True)
    assert forked.checksum == inline.checksum
    assert forked.barriers == inline.barriers
    assert forked.grants == reference.grants


def test_100k_ring_on_four_worker_processes_pinned():
    """The mega-ring at full size: 100,000 nodes, four forked workers
    under conservative windows, a bit over one circulation.  Events,
    sends, grants and the order-insensitive digest are exact, so the
    fork/pipe choreography is pinned at the scale it exists for, not
    only at n = 600."""
    n, horizon = 100_000, 120_000.0
    result = _sharded(
        4, processes=True, n=n, horizon=horizon,
        requests=mega_requests(n, seed=2001, count=256, horizon=horizon))
    assert result.checksum == "120256-120001-173-0000ea71837a84cd"


def test_request_after_token_passage_waits_a_full_circulation():
    """The window-cut regression: a request arriving just after the
    token left its segment must not be granted until the next visit,
    however far ahead its shard runs."""
    n = 40
    # Token reaches node 5 at t=5; request lands at t=6 -> next grant
    # opportunity is the second circulation's visit at t = 5 + n.
    requests = [(6.0, 5)]
    horizon = 2.0 * n + 10.0
    single = _sharded(1, requests=requests, n=n, horizon=horizon)
    split = _sharded(4, requests=requests, n=n, horizon=horizon)
    assert split.checksum == single.checksum
    assert split.grants == 1
    samples = split.responsiveness_samples()
    assert samples == single.responsiveness_samples()
    assert samples[0] == pytest.approx(n - 1.0)


def test_plan_segments_is_a_partition():
    for n, shards in ((10, 3), (100, 4), (7, 7), (5, 1)):
        bounds = plan_segments(n, shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(b[1] == c[0] for b, c in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ConfigError):
        plan_segments(2, 3)
    with pytest.raises(ConfigError):
        plan_segments(4, 0)


def test_support_matrix_is_enforced():
    with pytest.raises(FastSimUnsupportedError):
        ShardedRingSim(100, 2, config=ProtocolConfig(service_time=1.0))
    with pytest.raises(FastSimUnsupportedError):
        ShardedRingSim(100, 2, config=ProtocolConfig(idle_pause=2.0))
    with pytest.raises(FastSimUnsupportedError):
        ShardedRingSim(100, 2, delay=0.0)
    with pytest.raises(ConfigError):
        ShardedRingSim(1, 1)
    sim = ShardedRingSim(10, 2)
    with pytest.raises(ConfigError):
        sim.request_at(1.0, 99)


def test_mega_requests_is_deterministic():
    first = mega_requests(1000, seed=7, count=32, horizon=500.0)
    again = mega_requests(1000, seed=7, count=32, horizon=500.0)
    assert first == again
    assert first == sorted(first)
    assert all(0 <= node < 1000 for _t, node in first)
