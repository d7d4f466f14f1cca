"""Ablations A1–A5: the Section 4.4 optimization alternatives, measured.

- A1 trap GC: none vs rotation clean-up vs inverse-token clean-up;
- A2 delegated vs directed search (message budget ≤ 2 log N);
- A3 pull vs push vs combined push–pull across loads;
- A4 single-outstanding-request throttling;
- A5 adaptive token speed (idle pause) vs message overhead.
"""

import math

from conftest import bench_rounds, emit

from repro.analysis.experiments import (
    run_adaptive_speed_ablation,
    run_directed_ablation,
    run_gc_ablation,
    run_push_pull_ablation,
    run_throttle_ablation,
)
from repro.analysis.tables import format_series, format_table


def test_a1_trap_gc(results_dir):
    rows = run_gc_ablation(n=64, mean_interval=20.0,
                           rounds=bench_rounds(200), seed=2001)
    text = format_table(
        rows,
        ["trap_gc", "grants", "loans", "dummy_loans", "dummy_per_grant",
         "avg_responsiveness", "messages_total"],
        title="A1 — trap garbage collection (binary search, n=64)",
    )
    emit(results_dir, "ablation_a1_gc", text)
    by = {r["trap_gc"]: r for r in rows}
    # Rotation clean-up is the clear winner: fewest dummy loans per grant.
    assert by["rotation"]["dummy_per_grant"] <= by["none"]["dummy_per_grant"]
    assert by["rotation"]["dummy_per_grant"] <= \
        by["inverse"]["dummy_per_grant"]
    # (Measured finding, recorded in EXPERIMENTS.md: inverse-only clean-up
    # — without round expiry — can fire MORE dummy loans than no GC under
    # steady load, because trails only partially cover a request's traps.)
    # All policies preserve service and responsiveness class.
    for r in rows:
        assert r["grants"] > 0
        assert r["avg_responsiveness"] < 64 / 2


def test_a2_directed_search(results_dir):
    rows = run_directed_ablation(sizes=(16, 32, 64, 128, 256),
                                 rounds=bench_rounds(150), seed=2001)
    text = format_series(
        rows, index="n", series="protocol", value="search_per_grant",
        title="A2 — search messages per request: delegated vs directed",
    )
    emit(results_dir, "ablation_a2_directed", text)
    for r in rows:
        n = r["n"]
        if r["protocol"] == "binary_search":
            # Lemma 6: delegated search forwards O(log N) times.
            assert r["search_per_grant"] <= math.log2(n) + 2
        else:
            # Section 4.4: directed search costs at most ~2 log N
            # (probe + reply per level), sometimes less (early stop).
            assert r["search_per_grant"] <= 2 * math.log2(n) + 3


def test_a3_push_pull(results_dir):
    rows = run_push_pull_ablation(n=64, intervals=(5.0, 20.0, 100.0, 500.0),
                                  rounds=bench_rounds(150), seed=2001)
    resp = format_series(
        rows, index="mean_interval", series="protocol",
        value="avg_responsiveness",
        title="A3 — responsiveness: pull vs push vs hybrid (n=64)",
    )
    msgs = format_series(
        rows, index="mean_interval", series="protocol",
        value="messages_per_grant",
        title="A3 — messages per grant: pull vs push vs hybrid (n=64)",
    )
    emit(results_dir, "ablation_a3_push_pull", resp + "\n\n" + msgs)
    by = {(r["protocol"], r["mean_interval"]): r for r in rows}
    # At light load every scheme is far below the ring's n/2.
    for protocol in ("binary_search", "push", "hybrid"):
        assert by[(protocol, 500.0)]["avg_responsiveness"] < 64 / 4
    # Push saves expensive token traffic at light load (parked root).
    assert by[("push", 500.0)]["messages_expensive"] < \
        by[("binary_search", 500.0)]["messages_expensive"]


def test_a4_throttle(results_dir):
    rows = run_throttle_ablation(n=64, mean_interval=5.0,
                                 rounds=bench_rounds(100), seed=2001)
    text = format_table(
        rows,
        ["single_outstanding", "grants", "issued_gimmes", "search_messages",
         "token_passes", "messages_total", "avg_responsiveness"],
        title="A4 — single-outstanding-request throttle (n=64, heavy load)",
    )
    emit(results_dir, "ablation_a4_throttle", text)
    by = {r["single_outstanding"]: r for r in rows}
    # Throttling reduces gimme traffic without hurting responsiveness class.
    assert by[True]["search_messages"] <= by[False]["search_messages"]
    assert by[True]["avg_responsiveness"] <= \
        by[False]["avg_responsiveness"] * 1.5 + 1.0
    # Section 4.4's target: gimme traffic no more than token passes
    # (small slack: the final pre-throttle burst of each visit window).
    assert by[True]["search_messages"] <= 1.5 * by[True]["token_passes"]


def test_a5_adaptive_speed(results_dir):
    rows = run_adaptive_speed_ablation(
        n=64, pauses=(0.0, 1.0, 5.0, 20.0), mean_interval=200.0,
        rounds=bench_rounds(100), seed=2001)
    text = format_table(
        rows,
        ["idle_pause", "grants", "avg_responsiveness",
         "messages_total", "messages_per_time", "messages_per_grant"],
        title="A5 — adaptive token speed under light load (n=64)",
    )
    emit(results_dir, "ablation_a5_speed", text)
    by = {r["idle_pause"]: r for r in rows}
    # Message rate drops sharply with the pause...
    assert by[20.0]["messages_per_time"] < by[0.0]["messages_per_time"] / 4
    # ...while the binary search keeps responsiveness bounded (the parked
    # token is found where it sleeps; warm stamps steer the search).
    assert by[20.0]["avg_responsiveness"] <= 4 * math.log2(64)
