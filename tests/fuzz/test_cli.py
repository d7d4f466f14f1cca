"""CLI surface of ``repro run``: exit codes, replay semantics, skip rows,
and the verbs it replaced staying gone."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.fuzz import FuzzCase

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"


def test_fuzz_clean_run_exits_zero(capsys):
    assert main(["run", "--seed", "5", "--runs", "4"]) == 0
    out = capsys.readouterr().out
    assert "4/4 runs clean" in out
    assert "checksum=" in out


def test_fuzz_replay_corpus_exits_zero(capsys):
    path = sorted(CORPUS.glob("*.json"))[0]
    assert main(["run", "--replay", str(path)]) == 0
    assert "recorded outcome reproduced exactly" in capsys.readouterr().out


def test_fuzz_replay_tampered_outcome_exits_one(tmp_path, capsys):
    src = sorted(CORPUS.glob("*.json"))[0]
    doc = json.loads(src.read_text())
    doc["outcome"]["checksum"] = "deadbeef"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["run", "--replay", str(tampered)]) == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_fuzz_replay_without_outcome_uses_pass_fail(tmp_path, capsys):
    case, _ = FuzzCase.load(str(sorted(CORPUS.glob("*.json"))[0]))
    bare = tmp_path / "bare.json"
    case.save(str(bare))  # no recorded outcome
    assert main(["run", "--replay", str(bare)]) == 0


def test_fuzz_determinism_across_invocations(capsys):
    main(["run", "--seed", "7", "--runs", "3"])
    first = capsys.readouterr().out
    main(["run", "--seed", "7", "--runs", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_fuzz_failure_writes_counterexample(tmp_path, monkeypatch, capsys):
    """A violating run exits 1 and leaves a self-contained repro file."""
    from unittest import mock

    from repro.core.machine import TokenMachine

    real = TokenMachine._forward

    def broken(self):
        real(self)
        self.has_token = True  # canary

    out = tmp_path / "failures"
    with mock.patch.object(TokenMachine, "_forward", broken):
        code = main(["run", "--seed", "99", "--runs", "8",
                     "--profile", "clean", "--out", str(out)])
    assert code == 1
    written = sorted(out.glob("case-*.json"))
    assert written
    case, outcome = FuzzCase.load(str(written[0]))
    assert outcome["ok"] is False
    assert case.event_count() <= 20  # shrunk before being written
    err = capsys.readouterr()
    assert "VIOLATION" in err.out


def test_unsupported_pair_is_a_skipped_row_not_a_failure(capsys):
    """Spec-level cases cannot run on the array engine: each is a reported
    ``skipped: <reason>`` row and a summary count, and the exit is still 0
    because nothing failed."""
    assert main(["run", "--backend", "fast", "--profile", "spec",
                 "--seed", "5", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("skipped: spec-level case") == 2
    assert "0/2 runs clean, 2 skipped" in out


def test_replay_on_another_backend_drops_the_foreign_checksum(capsys):
    path = str(CORPUS / "clean-linear-handover.json")
    assert main(["run", "--replay", path, "--backend", "aio"]) == 0
    out = capsys.readouterr().out
    assert "[aio]: ok" in out
    assert "recorded outcome" not in out


def test_measure_prints_the_percentile_line(capsys):
    assert main(["run", "--profile", "stabilize", "--measure", "5",
                 "--episodes", "3", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "stabilize measure: n=5 episodes=4" in out
    assert "stabilization_time p50=" in out and "grants=" in out
    assert main(["run", "--measure", "5"]) == 2  # needs the profile


def test_unknown_backend_or_profile_is_a_usage_error(capsys):
    assert main(["run", "--backend", "carrier-pigeon", "--runs", "1"]) == 2
    assert main(["run", "--profile", "volcanic", "--runs", "1"]) == 2
    assert "unknown profile" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["fuzz", "chaos", "stabilize", "wire-smoke",
                                  "compare", "figure9", "figure10",
                                  "ablations", "refinement"])
def test_replaced_verbs_are_gone(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
