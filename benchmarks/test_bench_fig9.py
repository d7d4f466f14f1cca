"""Figure 9 — performance with fixed load.

Paper set-up (Section 4.3): "the load is fixed so that on average, every
10 time units, one of the nodes in the system makes a request"; 1000
rounds per run.  The curves show the regular ring's average responsiveness
approaching 10 (the average ring distance between requesters) while System
BinarySearch stays bounded by log n.
"""

import math

from conftest import bench_rounds, emit

from repro.analysis.experiments import run_figure9
from repro.analysis.tables import format_series


def test_figure9_fixed_load(results_dir):
    rows = run_figure9(
        sizes=(8, 16, 32, 64, 128, 256),
        mean_interval=10.0,
        rounds=bench_rounds(),
        seed=2001,
    )
    text = format_series(
        rows, index="n", series="protocol", value="avg_responsiveness",
        title=("Figure 9 — avg responsiveness vs processors "
               "(fixed load: one request per 10 time units)"),
    )
    emit(results_dir, "fig9", text)

    ring = {r["n"]: r["avg_responsiveness"]
            for r in rows if r["protocol"] == "ring"}
    binary = {r["n"]: r["avg_responsiveness"]
              for r in rows if r["protocol"] == "binary_search"}

    # Shape 1: the ring's responsiveness plateaus near the mean request
    # spacing (10), independent of n.
    assert 7.0 <= ring[128] <= 13.0
    assert 7.0 <= ring[256] <= 13.0
    assert ring[256] - ring[64] < 3.0

    # Shape 2: BinarySearch is bounded by O(log n) throughout.
    for n, value in binary.items():
        assert value <= 2.5 * math.log2(n) + 2, f"binary not O(log n) at n={n}"

    # Shape 3: BinarySearch grows with n (it is genuinely log n, not O(1)).
    assert binary[256] > binary[8]

    # Shape 4: BinarySearch wins clearly while log n < 10.
    for n in (16, 32, 64):
        assert binary[n] < ring[n], f"binary should win at n={n}"
