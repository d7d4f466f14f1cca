"""Figure 10 — performance with a fixed number of processors.

Paper set-up (Section 4.3): n = 100 fixed, load decreased.  "Using System
Binary Search, the average responsiveness approaches log n from below.
For the regular ring algorithm the average responsiveness approaches
n/2 (= 50)."
"""

import math

from conftest import bench_rounds, emit

from repro.analysis.experiments import run_figure10
from repro.analysis.tables import format_series

N = 100


def test_figure10_fixed_processors(results_dir):
    rows = run_figure10(
        intervals=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        n=N,
        rounds=bench_rounds(),
        seed=2001,
    )
    text = format_series(
        rows, index="mean_interval", series="protocol",
        value="avg_responsiveness",
        title=(f"Figure 10 — avg responsiveness vs load (n = {N}); "
               f"log2(n) = {math.log2(N):.2f}, n/2 = {N // 2}"),
    )
    emit(results_dir, "fig10", text)

    ring = {r["mean_interval"]: r["avg_responsiveness"]
            for r in rows if r["protocol"] == "ring"}
    binary = {r["mean_interval"]: r["avg_responsiveness"]
              for r in rows if r["protocol"] == "binary_search"}

    # Shape 1: the ring's responsiveness approaches n/2 as load vanishes.
    assert ring[500] > 0.75 * (N / 2)
    assert ring[500] <= N / 2 + 5

    # Shape 2: ring responsiveness grows monotonically-ish with interval.
    assert ring[1] < ring[10] < ring[100]

    # Shape 3: BinarySearch stays near log n at light-to-moderate load,
    # approaching it from below.
    for interval in (20, 50, 100, 200, 500):
        assert binary[interval] <= 1.6 * math.log2(N), (
            f"binary exceeds O(log n) at interval={interval}"
        )

    # Shape 4: the adaptive protocol wins by a large factor at light load
    # (paper: ~50 vs ~6.6, i.e. >5x) ...
    assert ring[500] / binary[500] > 4.0

    # ... and matches the ring at saturation (both O(1)-ish).
    assert abs(ring[1] - binary[1]) < 3.0
