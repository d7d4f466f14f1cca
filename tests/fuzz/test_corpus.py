"""Regression corpus replay: every committed case must reproduce its
recorded outcome bit-for-bit (same pass/fail, same event checksum).

A corpus file is a self-contained repro: explicit schedule, explicit
faults, pinned seeds.  If one of these starts disagreeing, either the
protocols changed behaviour (update the outcome *deliberately*) or
determinism broke (fix that first)."""

import json
import pathlib

import pytest

from repro.errors import ReproError
from repro.fuzz import BACKENDS, FuzzCase, run_case

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
CASES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_not_empty():
    assert len(CASES) >= 5


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_replays_exactly(path):
    case, outcome = FuzzCase.load(str(path))
    assert outcome is not None, f"{path.name} has no recorded outcome"
    result = run_case(case)
    assert result.outcome() == outcome, (
        f"{path.name}: recorded {outcome}, replayed {result.outcome()}")


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "des"])
@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_holds_on_every_backend(path, backend):
    """Every corpus file is a cross-backend check: on a backend other
    than the one that recorded it, the schedule either runs clean under
    the same oracle or comes back with the reason it cannot run — never
    an exception, never a silent pass."""
    case, outcome = FuzzCase.load(str(path))
    result = run_case(case.with_(backend=backend))
    if result.skipped is not None:
        assert result.skipped.strip() and not result.ok
        assert result.violation is None
    else:
        assert result.ok == outcome["ok"], result.violation
    if backend == "fast" and result.skipped is None:
        # The array engine's claim is stronger: the des run, bit for bit.
        assert result.outcome() == outcome


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_validates(path):
    case, _ = FuzzCase.load(str(path))
    case.validate()


def test_unknown_schema_is_rejected(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "not-a-fuzz-case/v9"}))
    with pytest.raises(ReproError):
        FuzzCase.load(str(bogus))


def test_regen_race_case_still_regenerates():
    """The corpus pins the exact schedule that once produced two
    same-epoch tokens; it must still drive regeneration (epoch > 0)
    while staying violation-free."""
    case, _ = FuzzCase.load(str(CORPUS / "faults-ft-regen-race.json"))
    assert case.protocol == "fault_tolerant"
    assert any(f["op"] == "token_loss" for f in case.faults)
    result = run_case(case)
    assert result.ok, result.violation
    assert result.grants > 0
