"""Extension benchmark: graceful degradation under cheap-message loss.

Section 1's conditional-performance claim, measured: the cheap messages
(gimme searches) only *steer* the system onto fast trajectories — "the
system remains correct even if no cheap message is ever sent".  Sweeping
the loss rate of cheap messages from 0 to ~1 must therefore degrade the
adaptive protocol's responsiveness smoothly from ~log N toward the plain
ring's behaviour, never breaking safety or liveness.
"""

import math

from conftest import bench_rounds, emit

from repro.analysis.tables import format_table
from repro.core.cluster import Cluster
from repro.workload.generators import FixedRateWorkload

N = 64
INTERVAL = 100.0  # light load: where the searches matter most


def run_sweep(rounds: int):
    rows = []
    ring = Cluster.build("ring", n=N, seed=2001)
    ring.add_workload(FixedRateWorkload(mean_interval=INTERVAL))
    ring.run(rounds=rounds, max_events=50_000_000)
    ring_resp = ring.responsiveness.average_responsiveness()

    for loss in (0.0, 0.2, 0.5, 0.8, 0.95, 0.999999):
        cluster = Cluster.build("binary_search", n=N, seed=2001,
                                loss_rate=loss)
        cluster.add_workload(FixedRateWorkload(mean_interval=INTERVAL))
        cluster.run(rounds=rounds, max_events=50_000_000)
        tracker = cluster.responsiveness
        rows.append({
            "cheap_loss": loss,
            "grants": tracker.grants(),
            "outstanding": tracker.outstanding,
            "avg_responsiveness": tracker.average_responsiveness(),
            "vs_ring": tracker.average_responsiveness() / ring_resp,
        })
    return ring_resp, rows


def test_loss_degradation(results_dir):
    ring_resp, rows = run_sweep(bench_rounds(150))
    text = format_table(
        rows,
        ["cheap_loss", "grants", "outstanding", "avg_responsiveness",
         "vs_ring"],
        title=(f"Cheap-message loss sweep (binary search, n={N}, light "
               f"load; plain ring reference: {ring_resp:.2f})"),
    )
    emit(results_dir, "loss_sweep", text)
    by = {r["cheap_loss"]: r for r in rows}
    # Liveness at every loss rate — the ring rotation is the safety net.
    for r in rows:
        assert r["grants"] > 0
        assert r["outstanding"] <= 2
    # Lossless: ~log N, far below the ring.
    assert by[0.0]["avg_responsiveness"] <= 2 * math.log2(N)
    assert by[0.0]["avg_responsiveness"] < ring_resp / 2
    # Degradation is monotone-ish and lands on the ring at total loss.
    assert by[0.5]["avg_responsiveness"] >= by[0.0]["avg_responsiveness"]
    assert by[0.999999]["avg_responsiveness"] >= 0.7 * ring_resp
