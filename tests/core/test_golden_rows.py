"""Golden rows: every registered protocol, replayed against a pinned file.

``golden/protocol_rows.json`` holds, for root seeds 0 and 2001, the
``label checksum ok|FAIL events`` line of every case of the ``clean`` (60),
``faults`` (60) and ``stabilize`` (10) fuzz batches on ``des`` — 260
cases that between them run all eight protocol names — plus the text of
``repro figure ablations --rounds 100`` (A2/A3 cover directed/push/hybrid up to
n=256).  It was generated on the commit *before* the protocol-table
refactor; a refactor of the cores has to reproduce it byte for byte, and
a deliberate behaviour change updates the lines it moves in the same
commit.  Regenerate with ``PYTHONPATH=src python
tests/core/test_golden_rows.py``.

One line is a known violation, recorded as it is: seed 2001 ``faults``
index 43 (see ``tests/fuzz/corpus/faults-ft-double-mint.json``).
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.fuzz import fuzz_run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "protocol_rows.json"
BATCHES = [(profile, seed, runs)
           for seed in (0, 2001)
           for profile, runs in (("clean", 60), ("faults", 60),
                                 ("stabilize", 10))]


def _batch(profile: str, seed: int, runs: int) -> list:
    return [f"{row['label']} {row['checksum']} "
            f"{'ok' if row['ok'] else 'FAIL'} {row['events']}"
            for row in fuzz_run(seed, runs, profile)]


def _ablations() -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["figure", "ablations", "--rounds", "100"]) == 0
    return out.getvalue().splitlines()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("profile,seed,runs", BATCHES,
                         ids=[f"{p}-{s}" for p, s, _ in BATCHES])
def test_fuzz_batch_matches_golden(profile, seed, runs):
    want = _golden()[f"{profile}/{seed}"]
    got = _batch(profile, seed, runs)
    moved = [(index, w, g) for index, (w, g) in enumerate(zip(want, got))
             if w != g]
    assert not moved and len(got) == len(want), moved[:5]


def test_ablation_tables_match_golden():
    assert _ablations() == _golden()["ablations"]


if __name__ == "__main__":
    doc = {f"{profile}/{seed}": _batch(profile, seed, runs)
           for profile, seed, runs in BATCHES}
    doc["ablations"] = _ablations()
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
