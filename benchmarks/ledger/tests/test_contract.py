"""BENCHMARK.json against the runner: names, shapes, and a real run."""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

LEDGER = pathlib.Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT, script=LEDGER / "run.py"):
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, time.monotonic() - started


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert CONTRACT["command"][-1].startswith(CONTRACT["paths"][0] + "/")
    names = [e["name"] for group in ("workloads", "end_to_end", "per_layer")
             for e in CONTRACT[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    e2e = {e["name"]: e for e in CONTRACT["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < e["bound"] <= 0.25 for e in e2e.values())
    assert e2e["setup_s"]["bound"] == max(e["bound"] for e in e2e.values())
    units = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert all(units.fullmatch(e["unit"])
               for group in ("end_to_end", "per_layer")
               for e in CONTRACT[group])


def test_runner_knows_every_workload_of_the_contract():
    import run

    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert set(run.RUNGS) <= set(run.WORKLOADS)


def test_check_only_child_reports_the_pinned_check_point():
    import run

    proc, _ = _run("--engine", "fast", "--seed", str(run.PINNED_SEED),
                   "--check-only", script=LEDGER / "sim_child.py")
    assert proc.returncode == 0, proc.stderr
    ready, last = map(json.loads, proc.stdout.splitlines())
    assert ready == {"ready": True}
    assert last == {"check": run.PINNED}


def test_sim_tail_takes_each_slices_quietest_repeat():
    import run

    # slices are [wall_s, events, grants]; the third one granted nothing
    a = run.Repeat(detail={"slices": [[0.010, 50, 10], [0.030, 50, 10],
                                      [0.020, 40, 0], [0.015, 60, 5]]})
    b = run.Repeat(detail={"slices": [[0.020, 50, 10], [0.012, 50, 10],
                                      [0.010, 40, 0]]})
    quiet = run.quietest_slices([a, b])
    assert [round(ms, 9) for ms in quiet] == [1.0, 1.2]
    assert run.slices_differ([a, b]) == []
    b.detail["slices"][1][2] = 11
    assert run.slices_differ([a, b])


def test_smoke_prints_every_end_to_end_metric_under_ten_seconds():
    proc, took = _run("--workload", "wire_light_n3", "--repeats", "1",
                      "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    assert took < 10.0
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    units = {e["name"]: e["unit"] for e in CONTRACT["end_to_end"]}
    assert {name: value["unit"] for name, value in last["metrics"].items()} \
        == units
    assert all(value["value"] > 0 for value in last["metrics"].values())
    for name in units:                      # ... and by name in the table
        assert re.search(rf"^{re.escape(name)}\s", proc.stdout, re.M)


def test_traced_smoke_prints_every_per_layer_metric_and_a_closed_ledger():
    proc, _ = _run("--workload", "wire_light_n3", "--repeats", "1",
                   "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    units = {e["name"]: e["unit"] for e in CONTRACT["per_layer"]}
    assert {name: value["unit"] for name, value in last["metrics"].items()} \
        == units
    on_path = ("wire.codec.encode_us_per_frame", "wire.server.stub_rtt_us",
               "wire.server.session_self_us_per_op", "core.events_per_op",
               "aio.cluster.responsiveness_delays_p50",
               "aio.cluster.memory_acquire_ms_p50", "trace.overhead_ratio",
               "server.unattributed_cpu_us_per_op")
    assert all(last["metrics"][name]["value"] > 0 for name in on_path)
    assert last["metrics"]["sim.events_per_s"]["value"] == 0
    # The ledger's rows sum to the figure in its heading.
    heading = re.search(r"ledger; rows sum to ([0-9.]+) us/op", proc.stdout)
    rows = re.findall(r"^\S+\s+[0-9.]+\s+(-?[0-9.]+)\s+-?[0-9.]+%$",
                      proc.stdout, re.M)
    assert heading and len(rows) > 5
    assert abs(sum(map(float, rows)) - float(heading.group(1))) < 1.0


def test_a_broken_service_socket_counts_the_repeat_as_failed(monkeypatch):
    import asyncio

    import run

    async def reset(*args, **kwargs):
        raise ConnectionResetError("peer went away")

    monkeypatch.setattr(run, "drive", reset)
    repeat = asyncio.run(
        run.wire_repeat(run.WORKLOADS["wire_light_n3"], 1, 0.1))
    assert repeat.failed == repeat.attempted == 1
    assert "ConnectionResetError" in repeat.problems[0]
    assert "stderr tail" in repeat.problems[0]


def test_a_false_alarm_voids_the_repeat_and_it_is_run_again(monkeypatch):
    import asyncio

    import run

    quiet = {"alarms": {"censuses": 0, "token_epoch": 0, "suspects": 0}}
    assert run.false_alarms({}) == run.false_alarms(quiet) == ""
    assert "token_epoch" in run.false_alarms(
        {"alarms": {"censuses": 0, "token_epoch": 6}})

    def scripted(*outcomes):
        queue = [run.Repeat(void=why, problems=["overlap"] if why else [])
                 for why in outcomes]

        async def run_repeat(*args):
            return queue.pop(0)

        monkeypatch.setattr(run, "run_repeat", run_repeat)
        voided = []
        kept = asyncio.run(run.undisturbed(
            run.WORKLOADS["wire_busy_n5"], 1, 0.1, voided))
        return kept, voided

    kept, voided = scripted("alarm", "alarm", "")
    assert not kept.void and not kept.problems
    assert [r.problems for r in voided] == [["overlap"]] * run.VOID_BUDGET
    # The budget spent, the next disturbed repeat stands, problems and all.
    kept, voided = scripted("alarm", "alarm", "alarm", "")
    assert kept.void and kept.problems == ["overlap"]
    assert len(voided) == run.VOID_BUDGET


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(LEDGER, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _run("--workload", "wire_light_n3", "--seed", "1",
                   "--seconds", "1", "--trace", "0",
                   cwd=tmp_path, script=target / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
