"""The simulator under test, in a fresh interpreter per repeat.

Builds the paper-scale Figure 10 cell — ``binary_search``, n = 100,
``FixedRateWorkload(mean_interval=10)`` — on the object DES
(``--engine object``) or the compiled engine (``--engine fast``), prints
``{"ready": true}``, then:

1. runs the engine to ``CHECK_ROUNDS`` — the untimed warm-up — and
   reports its counts there (the harness requires them equal to the other
   engine's for any seed and to the pinned values for seed 2001).  With
   ``--check-only`` it prints them and stops: that is how the harness
   asks the *other* engine, in a process of its own, so that neither its
   memory nor its caches reach the measured one;
2. advances the engine in slices of ``SLICE_ROUNDS`` token circulations
   for ``--seconds``, timing each ``run()`` call from the caller's side —
   the researcher's position;
3. reads its peak resident set when the run reaches ``RSS_ROUNDS`` circulations
   (paper scale) — a time-bounded run simulates more on a faster host,
   and the engines' logs grow with what they simulate;
4. prints one JSON line with the slices and exits 0.

``--traced`` (object engine) installs span wrappers around the sim
layers' entry points and adds per-layer self times over the window.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from spans import Tracer, in_window, peak_rss_kb, self_times  # noqa: E402

N = 100
PROTOCOL = "binary_search"
MEAN_INTERVAL = 10.0
CHECK_ROUNDS = 300
#: About 25 ms of wall per slice on either engine: long against a
#: scheduler tick, short enough that a 6 s window holds a p95.
SLICE_ROUNDS = {"object": 5, "fast": 20}
RSS_ROUNDS = 1000
#: A traced window is cut short: five spans per event add up fast.
TRACED_SECONDS = 2.0


def install_wrappers(tracer: Tracer) -> None:
    from repro.core.cluster import Cluster
    from repro.metrics.counters import MessageCounters
    from repro.metrics.responsiveness import ResponsivenessTracker
    from repro.sim.driver import NodeDriver
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network

    tracer.wrap_sync(Cluster, "run", "sim.cluster.run")
    tracer.wrap_sync(Simulator, "run", "sim.kernel.run")
    tracer.wrap_sync(Network, "send", "sim.network.send")
    tracer.wrap_sync(NodeDriver, "_apply", "sim.driver.apply")
    tracer.wrap_core(PROTOCOL)
    tracer.wrap_sync(MessageCounters, "on_send", "metrics.on_send")
    tracer.wrap_sync(ResponsivenessTracker, "on_request", "metrics.on_request")
    tracer.wrap_sync(ResponsivenessTracker, "on_grant", "metrics.on_grant")


def build(engine: str, seed: int) -> Any:
    from repro import Cluster, FixedRateWorkload
    from repro.fastsim import FastCluster

    factory = Cluster if engine == "object" else FastCluster
    cluster = factory.build(PROTOCOL, n=N, seed=seed)
    cluster.add_workload(FixedRateWorkload(mean_interval=MEAN_INTERVAL))
    return cluster


def counts(engine: str, cluster: Any) -> Dict[str, Any]:
    if engine == "object":
        return {"events": cluster.sim.executed_total,
                "messages": cluster.messages.total,
                "grants": cluster.responsiveness.grants(),
                "rounds": cluster.rounds}
    return {"events": cluster.executed_total,
            "messages": cluster.sent_total,
            "grants": cluster.grants,
            "rounds": cluster.rounds}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=("object", "fast"), required=True)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--check-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    tracer: Optional[Tracer] = None
    if args.traced:
        tracer = Tracer()
        install_wrappers(tracer)
    cluster = build(args.engine, args.seed)
    print(json.dumps({"ready": True}), flush=True)

    cluster.run(rounds=CHECK_ROUNDS)
    check = dict(counts(args.engine, cluster), avg_responsiveness=(
        cluster.responsiveness.average_responsiveness()))
    if args.check_only:
        print(json.dumps({"check": check}), flush=True)
        return 0

    seconds = min(args.seconds, TRACED_SECONDS) if tracer else args.seconds
    slices: List[List[float]] = []     # [wall_s, events, grants]
    rss_kb: Optional[int] = None
    target = CHECK_ROUNDS
    before = counts(args.engine, cluster)
    cpu0, started = time.process_time(), time.perf_counter()
    now = started
    while now - started < seconds:
        target += SLICE_ROUNDS[args.engine]
        cluster.run(rounds=target)
        after = counts(args.engine, cluster)
        done = time.perf_counter()
        slices.append([done - now, after["events"] - before["events"],
                       after["grants"] - before["grants"]])
        before, now = after, done
        if rss_kb is None and after["rounds"] >= RSS_ROUNDS:
            rss_kb = peak_rss_kb()
    cpu1 = time.process_time()
    if rss_kb is None and tracer is None:   # a traced run's memory is spans
        cluster.run(rounds=RSS_ROUNDS)
        rss_kb = peak_rss_kb()

    doc: Dict[str, Any] = {
        "check": check, "slices": slices, "wall_s": now - started,
        "cpu_s": cpu1 - cpu0, "peak_rss_kb": rss_kb or peak_rss_kb(),
    }
    if tracer is not None:
        keep = in_window(tracer.spans, started, now)
        doc["trace"] = {
            "layers": {name: row for (name, _), row
                       in self_times(tracer.spans, keep).items()},
            "spans": len(tracer.spans)}
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
