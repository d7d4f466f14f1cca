"""Shared benchmark configuration.

Each benchmark regenerates one paper figure or ablation, prints the series
(the same rows the paper plots), writes it under ``benchmarks/results/``,
and asserts the qualitative *shape* the paper reports — who wins, by
roughly what factor, where the crossover falls.

``REPRO_BENCH_ROUNDS`` controls the token circulations per run.  The paper
used 1000; the default here is 300, which reproduces every shape in a few
minutes.  Set ``REPRO_BENCH_ROUNDS=1000`` for the full-fidelity runs.

The transition sanitizer (``repro.lint.sanitizer``) runs here as it does
everywhere a cluster is built without ``sanitize=False``: it only observes,
so no figure moves, and its cost per event is a ledger row
(``lint.sanitizer.check_self_us_per_event``).
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


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
