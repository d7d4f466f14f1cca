"""CLI tests (invoked in-process through ``repro.cli.main``)."""

import pytest

from repro.cli import main


class TestSimulate:
    def test_default_run(self, capsys):
        assert main(["simulate", "-n", "16", "--rounds", "30"]) == 0
        out = capsys.readouterr().out
        assert "binary_search" in out
        assert "avg_responsiveness" in out

    def test_protocol_choice(self, capsys):
        assert main(["simulate", "--protocol", "ring", "-n", "8",
                     "--rounds", "20"]) == 0
        assert "ring" in capsys.readouterr().out

    def test_gc_and_pause_flags(self, capsys):
        assert main(["simulate", "-n", "8", "--rounds", "20",
                     "--trap-gc", "none", "--idle-pause", "2.0"]) == 0

    def test_invalid_protocol_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--protocol", "bogus"])

    def test_prints_both_protocols(self, capsys):
        assert main(["simulate", "--protocol", "ring", "binary_search",
                     "-n", "32", "--mean-interval", "50",
                     "--rounds", "40"]) == 0
        out = capsys.readouterr().out
        assert "ring vs binary_search" in out
        assert "log2(n)" in out


class TestFigures:
    def test_figure9_runs_small(self, capsys, monkeypatch):
        import repro.cli as cli

        def tiny(rounds, seed, jobs=None):
            from repro.analysis.experiments import run_figure9
            return run_figure9(sizes=(8, 16), rounds=20, seed=seed,
                               jobs=jobs)

        monkeypatch.setattr(cli, "run_figure9", tiny)
        assert main(["figure", "9", "--rounds", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_figure10_runs_small(self, capsys, monkeypatch):
        import repro.cli as cli

        def tiny(n, rounds, seed, jobs=None):
            from repro.analysis.experiments import run_figure10
            return run_figure10(intervals=(5, 50), n=16, rounds=20,
                                seed=seed, jobs=jobs)

        monkeypatch.setattr(cli, "run_figure10", tiny)
        assert main(["figure", "10", "-n", "16", "--rounds", "20"]) == 0
        assert "Figure 10" in capsys.readouterr().out


class TestParser:
    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401 — importable means runnable

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_usage_block_parser_and_dispatch_agree(self):
        import argparse
        import re

        from repro import cli

        [sub] = [action for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
        documented = set(re.findall(r"python -m repro (\w+)", cli.__doc__))
        assert set(sub.choices) == set(cli._COMMANDS) == documented
        assert len(documented) == 9 and "bench" not in documented

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "-n", "0"],
        ["fabric", "--keys", "0"],
        ["fabric", "--ring", "0"],
        ["run", "--profile", "stabilize", "--measure", "0"],
    ])
    def test_bad_argument_is_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "--rounds", "20", "--seeds", "1", "2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# repro" in text
        assert "Figure 9" in text and "Figure 10" in text
        assert "±" in text
        assert "wrote" in capsys.readouterr().out
