"""Tests for the experiment runners and table rendering (small instances —
the full paper-scale runs live in benchmarks/)."""

import math

import pytest

from repro.analysis.experiments import (
    run_adaptive_speed_ablation,
    run_directed_ablation,
    run_figure9,
    run_figure10,
    run_gc_ablation,
    run_protocol_once,
    run_push_pull_ablation,
    run_throttle_ablation,
)
from repro.analysis.tables import format_series, format_table, pivot


class TestRunners:
    def test_run_protocol_once_row_shape(self):
        row = run_protocol_once("ring", n=8, mean_interval=5.0,
                                rounds=20, seed=1)
        for key in ("protocol", "n", "grants", "avg_responsiveness",
                    "messages_total", "token_passes"):
            assert key in row
        assert row["grants"] > 0

    def test_figure9_cell_n64_pinned(self):
        row = run_protocol_once("binary_search", n=64, mean_interval=10.0,
                                rounds=40, seed=2001)
        assert (row["grants"], row["messages_total"]) == (444, 7305)

    def test_figure9_small_shape(self):
        rows = run_figure9(sizes=(8, 32), rounds=60, seed=1)
        assert len(rows) == 4
        ring = {r["n"]: r["avg_responsiveness"]
                for r in rows if r["protocol"] == "ring"}
        binary = {r["n"]: r["avg_responsiveness"]
                  for r in rows if r["protocol"] == "binary_search"}
        # The paper's Figure 9 shape: ring roughly flat (near the request
        # spacing), binary growing with log n but below ring here.
        assert binary[8] < ring[8]
        assert binary[32] < ring[32]

    def test_figure10_small_shape(self):
        rows = run_figure10(intervals=(2, 100), n=32, rounds=60, seed=1)
        ring = {r["mean_interval"]: r["avg_responsiveness"]
                for r in rows if r["protocol"] == "ring"}
        binary = {r["mean_interval"]: r["avg_responsiveness"]
                  for r in rows if r["protocol"] == "binary_search"}
        # Lighter load: ring grows toward n/2, binary stays near log n.
        assert ring[100] > ring[2]
        assert binary[100] < ring[100] / 2
        assert binary[100] < 2 * math.log2(32) + 2

    def test_gc_ablation_rows(self):
        rows = run_gc_ablation(n=16, rounds=40, seed=1)
        policies = {r["trap_gc"] for r in rows}
        assert policies == {"none", "rotation", "inverse"}
        for r in rows:
            assert r["dummy_loans"] >= 0

    def test_directed_ablation_counts(self):
        rows = run_directed_ablation(sizes=(16,), rounds=40, seed=1)
        protos = {r["protocol"] for r in rows}
        assert protos == {"binary_search", "directed_search"}
        for r in rows:
            assert r["search_per_grant"] >= 0

    def test_throttle_ablation(self):
        rows = run_throttle_ablation(n=16, rounds=60, seed=1)
        by_mode = {r["single_outstanding"]: r for r in rows}
        assert set(by_mode) == {True, False}
        # Throttling cannot send more gimmes than not throttling.
        assert by_mode[True]["search_messages"] <= \
            by_mode[False]["search_messages"]

    def test_adaptive_speed_ablation_saves_messages(self):
        rows = run_adaptive_speed_ablation(n=16, pauses=(0.0, 10.0),
                                           rounds=20, seed=1)
        by_pause = {r["idle_pause"]: r for r in rows}
        assert by_pause[10.0]["messages_total"] < \
            by_pause[0.0]["messages_total"]

    def test_push_pull_ablation_runs(self):
        rows = run_push_pull_ablation(n=16, intervals=(50.0,), rounds=30,
                                      seed=1)
        assert {r["protocol"] for r in rows} == \
            {"binary_search", "push", "hybrid"}


class TestTables:
    ROWS = [
        {"n": 8, "protocol": "ring", "avg": 3.25},
        {"n": 8, "protocol": "binary", "avg": 2.5},
        {"n": 16, "protocol": "ring", "avg": 6.0},
        {"n": 16, "protocol": "binary", "avg": 3.0},
    ]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS[:2], ["n", "protocol", "avg"],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "protocol" in lines[1]
        assert "3.25" in text

    def test_format_table_missing_column_blank(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert text.splitlines()[-1].strip().startswith("1")

    def test_pivot_wide_form(self):
        wide = pivot(self.ROWS, index="n", series="protocol", value="avg")
        assert wide == [
            {"n": 8, "ring": 3.25, "binary": 2.5},
            {"n": 16, "ring": 6.0, "binary": 3.0},
        ]

    def test_format_series_headers(self):
        text = format_series(self.ROWS, index="n", series="protocol",
                             value="avg")
        header = text.splitlines()[0]
        assert "ring" in header and "binary" in header

    def test_bool_formatting(self):
        text = format_table([{"x": True}, {"x": False}], ["x"])
        assert "yes" in text and "no" in text
