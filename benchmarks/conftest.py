"""Shared benchmark configuration.

Each benchmark regenerates one paper figure or ablation, prints the series
(the same rows the paper plots), writes it under ``benchmarks/results/``,
and asserts the qualitative *shape* the paper reports — who wins, by
roughly what factor, where the crossover falls.

``REPRO_BENCH_ROUNDS`` controls the token circulations per run.  The paper
used 1000; the default here is 300, which reproduces every shape in a few
minutes.  Set ``REPRO_BENCH_ROUNDS=1000`` for the full-fidelity runs.

The transition sanitizer (``repro.lint.sanitizer``) is on by default in
the sim layer, but benchmarks measure the *protocols*, not the checker —
so the suite forces it off unless ``REPRO_BENCH_SANITIZE`` is set.  (Its
cost is a ledger row, ``lint.sanitizer.check_self_us_per_event``.)
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_sanitize() -> bool:
    """Whether benchmarks should run under the transition sanitizer."""
    return os.environ.get("REPRO_BENCH_SANITIZE", "").strip().lower() in (
        "1", "on", "true", "yes")


@pytest.fixture(autouse=True)
def _benchmark_sanitizer_default(monkeypatch):
    """Pin the sanitizer off for benchmark runs unless explicitly opted in.

    Clusters built with an explicit ``sanitize=`` argument are unaffected
    — the env default only governs implicit construction.
    """
    if not bench_sanitize():
        monkeypatch.setenv("REPRO_SANITIZE", "0")


def bench_rounds(default: int = 300) -> int:
    return int(os.environ.get("REPRO_BENCH_ROUNDS", default))


@pytest.fixture()
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir, name: str, text: str) -> None:
    """Print the series and persist it as an artifact."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
