"""Command-line interface.

Usage (also available as ``python -m repro``):

    python -m repro simulate --protocol binary_search -n 100 \\
        --mean-interval 10 --rounds 300 --seed 7
    python -m repro compare -n 100 --mean-interval 100 --rounds 300
    python -m repro figure9 [--rounds 300]
    python -m repro figure10 [--rounds 300]
    python -m repro ablations [--rounds 200]
    python -m repro refinement [-n 4 --steps 200]
    python -m repro report [--out report.md --seeds 1 2 3]
    python -m repro lint [--json --strict --max-states 300]
    python -m repro fabric [--keys 256 --grants 6400 --json]
    python -m repro fabric --keys 256 --expect-checksum <hex>
    python -m repro run [--backend des --profile mixed --seed 2001 --runs 50]
    python -m repro run --backend aio --profile crash --runs 20
    python -m repro run --backend wire --profile smoke --runs 1
    python -m repro run --replay tests/fuzz/corpus/<case>.json [--backend aio]
    python -m repro run --profile stabilize --measure 9 [--episodes 20]
    python -m repro verify [--system binary_search --strict --check FILE]
    python -m repro serve [-n 3 --protocol fault_tolerant --port 7700]
    python -m repro loadgen --port 7700 [--ops 1000 --clients 4]

Sweep commands accept ``--jobs N`` (or the ``REPRO_JOBS`` environment
variable) to fan independent cells out over N worker processes; the output
is identical to a serial run.

Every command prints plain-text tables (see :mod:`repro.analysis.tables`)
and returns a process exit code of 0 on success.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

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
from repro.analysis.tables import format_series, format_table
from repro.core.config import ProtocolConfig
from repro.core.protocols import PROTOCOLS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2001,
                        help="RNG seed (default 2001)")
    parser.add_argument("--rounds", type=int, default=300,
                        help="token circulations per run (paper: 1000)")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent sweep cells "
                             "(default: REPRO_JOBS or 1 = serial; 0 or -1 "
                             "means all CPUs)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Adaptive token-passing (Englert, Rudolph & Shvartsman "
                     "2001): simulations, figures, and ablations."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one protocol once")
    sim.add_argument("--protocol", choices=PROTOCOLS, default="binary_search")
    sim.add_argument("-n", "--nodes", type=int, default=100)
    sim.add_argument("--mean-interval", type=float, default=10.0,
                     help="mean time between requests (global Poisson)")
    sim.add_argument("--idle-pause", type=float, default=0.0)
    sim.add_argument("--trap-gc", choices=("none", "rotation", "inverse"),
                     default="rotation")
    _add_common(sim)

    cmp_ = sub.add_parser("compare", help="ring vs binary search, one load")
    cmp_.add_argument("-n", "--nodes", type=int, default=100)
    cmp_.add_argument("--mean-interval", type=float, default=100.0)
    _add_common(cmp_)
    _add_jobs(cmp_)

    fig9 = sub.add_parser("figure9", help="regenerate the paper's Figure 9")
    _add_common(fig9)
    _add_jobs(fig9)

    fig10 = sub.add_parser("figure10", help="regenerate the paper's Figure 10")
    fig10.add_argument("-n", "--nodes", type=int, default=100)
    _add_common(fig10)
    _add_jobs(fig10)

    abl = sub.add_parser("ablations", help="run the A1-A5 ablation suite")
    _add_common(abl)
    _add_jobs(abl)

    ref = sub.add_parser("refinement",
                         help="machine-check the TRS refinement chain")
    ref.add_argument("-n", "--nodes", type=int, default=4)
    ref.add_argument("--steps", type=int, default=200)
    ref.add_argument("--seed", type=int, default=42)

    rep = sub.add_parser("report",
                         help="run the figures with replication and write "
                              "a markdown report")
    rep.add_argument("--out", default="report.md",
                     help="output path (default report.md)")
    rep.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    _add_common(rep)
    _add_jobs(rep)

    lint = sub.add_parser(
        "lint",
        help="statically analyze every registered TRS system (rule lint, "
             "refinement narrowing, sanitized simulation)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable JSON report")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings, not only errors")
    lint.add_argument("--max-states", type=int, default=300,
                      help="states sampled per system (default 300)")
    lint.add_argument("--skip-dynamic", action="store_true",
                      help="skip the sanitized protocol simulations")
    lint.add_argument("--system", action="append", default=None,
                      metavar="NAME",
                      help="lint only this system (repeatable; implies "
                           "--skip-dynamic)")

    fab = sub.add_parser(
        "fabric",
        help="run a multi-token fabric (N keyed lanes multiplexed on one "
             "kernel) under a closed-loop Zipf client population; prints "
             "per-key metrics and a deterministic checksum")
    fab.add_argument("--keys", type=int, default=256,
                     help="number of lock keys / token lanes (default 256)")
    fab.add_argument("--ring", type=int, default=3, metavar="N",
                     help="nodes per lane ring (default 3)")
    fab.add_argument("--protocol", choices=PROTOCOLS,
                     default="binary_search",
                     help="protocol core per lane (default binary_search)")
    fab.add_argument("--clients", type=int, default=None,
                     help="closed-loop client population "
                          "(default: 2.4 x keys, the saturation ratio)")
    fab.add_argument("--think-time", type=float, default=2.0,
                     help="virtual think time between a client's release "
                          "and next request (default 2.0)")
    fab.add_argument("--zipf-s", type=float, default=1.2,
                     help="Zipf skew of key popularity (default 1.2)")
    fab.add_argument("--grants", type=int, default=None,
                     help="total grants to run for (default: 25 x keys)")
    fab.add_argument("--idle-pause", type=float, default=10_000.0,
                     help="lane idle pause; the large default parks idle "
                          "tokens so every hop serves a grant "
                          "(default 10000)")
    fab.add_argument("--seed", type=int, default=2001,
                     help="fabric seed; lane seeds derive from it per key "
                          "(default 2001)")
    fab.add_argument("--top", type=int, default=10,
                     help="hottest keys to print (default 10)")
    fab.add_argument("--json", action="store_true",
                     help="emit the machine-readable JSON document")
    fab.add_argument("--expect-checksum", metavar="HEX", default=None,
                     help="exit non-zero unless the run checksum equals "
                          "HEX (CI determinism pin)")

    run = sub.add_parser(
        "run",
        help="seeded schedules of requests and faults, run on a backend "
             "(des / fast / aio / wire) under the invariant oracle, with "
             "shrinking and deterministic replay")
    run.add_argument("--backend", default=None,
                     help="des: discrete-event simulator; fast: "
                          "array-compiled engine; aio: supervised asyncio "
                          "runtime on a virtual clock; wire: the same "
                          "runtime on loopback TCP (default des, or the "
                          "replayed file's own)")
    run.add_argument("--profile", default="mixed",
                     help="case mix: clean, faults, spec, fabric, stabilize "
                          "(sim-shaped); crash, partition, corrupt "
                          "(runtime-shaped); smoke (closed-loop service "
                          "run); mixed (default: clean/faults/spec on des "
                          "and fast, crash/partition on aio and wire)")
    run.add_argument("--seed", type=int, default=2001,
                     help="root seed every case derives from (default 2001)")
    run.add_argument("--runs", type=int, default=50,
                     help="number of cases to generate and run (default 50)")
    run.add_argument("--replay", metavar="FILE", default=None,
                     help="replay one saved case file instead; exits "
                          "nonzero unless the recorded outcome reproduces "
                          "exactly")
    run.add_argument("--no-shrink", dest="shrink", action="store_false",
                     help="report violations without minimizing them")
    run.add_argument("--out", metavar="DIR", default="run-failures",
                     help="directory for counterexample files "
                          "(default run-failures/)")
    run.add_argument("--measure", type=int, metavar="N", default=None,
                     help="with --profile stabilize: instead of generated "
                          "cases, measure convergence-time percentiles on "
                          "an N-node ring")
    run.add_argument("--episodes", type=int, default=20,
                     help="corruption episodes for --measure (default 20)")

    verify = sub.add_parser(
        "verify",
        help="independence analysis, DPOR-accelerated exploration, and "
             "cutoff-certified parameterized verification of the ring "
             "systems; emits signed verdict artifacts")
    verify.add_argument("--system", default="binary_search",
                        help="system to verify (default binary_search); "
                             "see repro.verify.systems for keys")
    verify.add_argument("--property", action="append", default=None,
                        metavar="NAME", dest="properties",
                        help="property to certify (repeatable; default: "
                             "every property applicable to the system)")
    verify.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report")
    verify.add_argument("--strict", action="store_true",
                        help="exit nonzero unless every certification is "
                             "complete and verified")
    verify.add_argument("--max-states", type=int, default=200_000,
                        help="exploration cap per run (default 200000)")
    verify.add_argument("--out", metavar="DIR", default=None,
                        help="write signed verdict artifacts to DIR")
    verify.add_argument("--check", action="append", default=None,
                        metavar="FILE",
                        help="validate a committed verdict artifact instead "
                             "of running (repeatable)")
    verify.add_argument("--recompute", action="store_true",
                        help="with --check: re-run the certification and "
                             "require identical counts")

    serve = sub.add_parser(
        "serve",
        help="run a real-socket lock service: an in-process token-passing "
             "cluster on loopback TCP fronted by an acquire/release/status "
             "network API (stop with Ctrl-C)")
    serve.add_argument("-n", "--nodes", type=int, default=3,
                       help="cluster size (default 3)")
    serve.add_argument("--protocol", choices=PROTOCOLS,
                       default="fault_tolerant",
                       help="protocol core (default fault_tolerant)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="service bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7700,
                       help="service port; 0 picks a free one (default 7700)")
    serve.add_argument("--delay", type=float, default=0.001,
                       help="node-to-node transport delay in seconds; also "
                            "the protocol timer base (default 0.001)")
    serve.add_argument("--loss-rate", type=float, default=0.0,
                       help="cheap-message loss probability on the node "
                            "wire (default 0)")
    serve.add_argument("--seed", type=int, default=2001,
                       help="cluster seed (default 2001)")
    serve.add_argument("--no-reliability", dest="reliability",
                       action="store_false",
                       help="disable the ARQ layer on node links")
    serve.add_argument("--no-supervise", dest="supervise",
                       action="store_false",
                       help="disable crash supervision/restart")

    gen = sub.add_parser(
        "loadgen",
        help="drive a running lock service with an open- or closed-loop "
             "workload and print the latency report")
    gen.add_argument("--host", default="127.0.0.1",
                     help="service host (default 127.0.0.1)")
    gen.add_argument("--port", type=int, required=True,
                     help="service port (see `repro serve`)")
    gen.add_argument("--mode", choices=("closed", "open"), default="closed",
                     help="closed: N clients in acquire/release cycles; "
                          "open: Poisson arrivals (default closed)")
    gen.add_argument("--ops", type=int, default=1000,
                     help="total acquire attempts (default 1000)")
    gen.add_argument("--clients", type=int, default=4,
                     help="closed-loop concurrent sessions (default 4)")
    gen.add_argument("--mean-interval", type=float, default=0.01,
                     help="open-loop mean seconds between arrivals "
                          "(default 0.01)")
    gen.add_argument("--spread-nodes", type=int, default=0, metavar="N",
                     help="open-loop: spread arrivals over nodes 0..N-1; "
                          "0 lets the server pick (default 0)")
    gen.add_argument("--hold-time", type=float, default=0.0,
                     help="seconds to hold the lock per grant (default 0)")
    gen.add_argument("--think-time", type=float, default=0.0,
                     help="closed-loop pause between cycles (default 0)")
    gen.add_argument("--timeout", type=float, default=30.0,
                     help="per-acquire timeout in seconds (default 30)")
    gen.add_argument("--seed", type=int, default=0,
                     help="arrival-process seed (default 0)")
    gen.add_argument("--json", action="store_true",
                     help="emit the report as JSON")
    return parser


def _cmd_simulate(args) -> int:
    config = ProtocolConfig(idle_pause=args.idle_pause, trap_gc=args.trap_gc)
    row = run_protocol_once(
        args.protocol, n=args.nodes, mean_interval=args.mean_interval,
        rounds=args.rounds, seed=args.seed, config=config,
    )
    print(format_table(
        [row],
        ["protocol", "n", "grants", "avg_responsiveness",
         "max_responsiveness", "avg_waiting", "messages_total",
         "messages_cheap", "token_passes"],
        title=(f"{args.protocol} | n={args.nodes} "
               f"interval={args.mean_interval:g} rounds={args.rounds}"),
    ))
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.runner import Cell, run_cells

    rows = run_cells(
        [Cell(key=("compare", protocol), fn=run_protocol_once,
              kwargs=dict(protocol=protocol, n=args.nodes,
                          mean_interval=args.mean_interval,
                          rounds=args.rounds, seed=args.seed))
         for protocol in ("ring", "binary_search")],
        jobs=args.jobs,
    )
    print(format_table(
        rows,
        ["protocol", "avg_responsiveness", "max_responsiveness",
         "grants", "messages_total"],
        title=(f"ring vs binary_search | n={args.nodes} "
               f"interval={args.mean_interval:g} "
               f"(n/2={args.nodes // 2}, log2(n)="
               f"{math.log2(args.nodes):.2f})"),
    ))
    return 0


def _cmd_figure9(args) -> int:
    rows = run_figure9(rounds=args.rounds, seed=args.seed, jobs=args.jobs)
    print(format_series(
        rows, index="n", series="protocol", value="avg_responsiveness",
        title="Figure 9 — avg responsiveness vs processors (fixed load)",
    ))
    return 0


def _cmd_figure10(args) -> int:
    rows = run_figure10(n=args.nodes, rounds=args.rounds, seed=args.seed,
                        jobs=args.jobs)
    print(format_series(
        rows, index="mean_interval", series="protocol",
        value="avg_responsiveness",
        title=(f"Figure 10 — avg responsiveness vs load (n={args.nodes}; "
               f"log2(n)={math.log2(args.nodes):.2f}, "
               f"n/2={args.nodes // 2})"),
    ))
    return 0


def _cmd_ablations(args) -> int:
    print(format_table(
        run_gc_ablation(rounds=args.rounds, seed=args.seed, jobs=args.jobs),
        ["trap_gc", "grants", "dummy_per_grant", "avg_responsiveness"],
        title="A1 — trap garbage collection",
    ))
    print()
    print(format_series(
        run_directed_ablation(rounds=args.rounds, seed=args.seed,
                              jobs=args.jobs),
        index="n", series="protocol", value="search_per_grant",
        title="A2 — search messages per request",
    ))
    print()
    print(format_series(
        run_push_pull_ablation(rounds=args.rounds, seed=args.seed,
                               jobs=args.jobs),
        index="mean_interval", series="protocol",
        value="avg_responsiveness",
        title="A3 — pull vs push vs hybrid (responsiveness)",
    ))
    print()
    print(format_table(
        run_throttle_ablation(rounds=args.rounds, seed=args.seed,
                              jobs=args.jobs),
        ["single_outstanding", "grants", "search_messages", "token_passes",
         "avg_responsiveness"],
        title="A4 — gimme throttle",
    ))
    print()
    print(format_table(
        run_adaptive_speed_ablation(rounds=max(args.rounds // 2, 50),
                                    seed=args.seed, jobs=args.jobs),
        ["idle_pause", "grants", "messages_per_time", "avg_responsiveness"],
        title="A5 — adaptive token speed",
    ))
    return 0


def _cmd_refinement(args) -> int:
    from repro.specs import (
        system_binary_search,
        system_message_passing,
        system_s,
        system_s1,
        system_search,
        system_token,
    )
    from repro.specs.properties import prefix_property
    from repro.specs.refinement import (
        binary_search_to_s1,
        check_refinement,
        mp_to_s1,
        s1_to_s,
        search_to_s1,
        token_to_s1,
    )

    n = args.nodes
    coarse_s, _ = system_s.make_system(n)
    coarse_s1, _ = system_s1.make_system(n)
    chain = [
        ("S1 -> S (Lemma 1)", system_s1.make_system(n), s1_to_s,
         coarse_s, 1, {}),
        ("Token -> S1 (Lemma 2)", system_token.make_system(n), token_to_s1,
         coarse_s1, 2, {}),
        ("MP -> S1 (Lemma 3)", system_message_passing.make_system(n),
         mp_to_s1, coarse_s1, 2, {}),
        ("Search -> S1", system_search.make_system(n), search_to_s1,
         coarse_s1, 2, {"5": 0.5, "6": 0.8}),
        ("BinarySearch -> S1 (Thm 1)", system_binary_search.make_system(n),
         binary_search_to_s1, coarse_s1, 2,
         {"1": 1.5, "2": 3.0, "5": 0.6}),
    ]
    for label, (rewriter, initial), mapping, coarse, depth, weights in chain:
        reduction = rewriter.random_reduction(initial, args.steps,
                                              seed=args.seed,
                                              weights=weights or None)
        reduction.check_invariant(prefix_property)
        simulated = check_refinement(reduction, mapping, coarse,
                                     max_depth=depth)
        print(f"  {label:<28} OK ({len(reduction)} steps, "
              f"{simulated} simulated)")
    print("refinement chain verified")
    return 0


def _report_figure9_seed(seed: int, rounds: int) -> list:
    """One Figure-9 replication run (module-level so it pickles to spawn
    workers when ``report --jobs N`` parallelizes over seeds)."""
    return run_figure9(sizes=(8, 16, 32, 64), rounds=rounds, seed=seed)


def _report_figure10_seed(seed: int, rounds: int) -> list:
    """One Figure-10 replication run (module-level for spawn pickling)."""
    return run_figure10(intervals=(2, 10, 50, 200), n=64, rounds=rounds,
                        seed=seed)


def _cmd_report(args) -> int:
    from functools import partial

    from repro.analysis.replication import replicate

    lines = ["# repro — replicated figure report", ""]
    lines.append(f"seeds: {args.seeds}; rounds per run: {args.rounds}")
    lines.append("")

    fig9 = replicate(
        partial(_report_figure9_seed, rounds=args.rounds),
        seeds=args.seeds, key_fields=("n", "protocol"),
        value_fields=("avg_responsiveness",),
        jobs=args.jobs,
    )
    lines.append("## Figure 9 — fixed load, varying processors")
    lines.append("")
    lines.append("| n | protocol | avg responsiveness (mean ± 95% CI) |")
    lines.append("|---|---|---|")
    for row in fig9:
        lines.append(
            f"| {row['n']} | {row['protocol']} | "
            f"{row['avg_responsiveness_mean']:.2f} ± "
            f"{row['avg_responsiveness_ci']:.2f} |")
    lines.append("")

    fig10 = replicate(
        partial(_report_figure10_seed, rounds=args.rounds),
        seeds=args.seeds, key_fields=("mean_interval", "protocol"),
        value_fields=("avg_responsiveness",),
        jobs=args.jobs,
    )
    lines.append("## Figure 10 — fixed n = 64, varying load")
    lines.append("")
    lines.append("| interval | protocol | avg responsiveness (mean ± CI) |")
    lines.append("|---|---|---|")
    for row in fig10:
        lines.append(
            f"| {row['mean_interval']:g} | {row['protocol']} | "
            f"{row['avg_responsiveness_mean']:.2f} ± "
            f"{row['avg_responsiveness_ci']:.2f} |")
    lines.append("")

    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"wrote {args.out} ({len(fig9) + len(fig10)} aggregated rows)")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.registry import run_all, targets

    if args.system:
        known = [t.name for t in targets()]
        unknown = [name for name in args.system if name not in known]
        if unknown:
            print(f"error: unknown system(s) {', '.join(unknown)}; "
                  f"choose from: {', '.join(known)}", file=sys.stderr)
            return 2

    report = run_all(
        max_states=args.max_states,
        include_dynamic=not args.skip_dynamic,
        only=args.system,
    )
    if args.json:
        print(report.to_json())
    else:
        for finding in report:
            print(repr(finding))
        print(report.summary_line())
    return 0 if report.ok(strict=args.strict) else 1


def _cmd_fabric(args) -> int:
    import json
    import time
    import zlib

    from repro.fabric import TokenFabric
    from repro.workload.keyed import ClosedLoopKeyedWorkload

    fabric = TokenFabric(seed=args.seed)
    config = ProtocolConfig(idle_pause=args.idle_pause)
    width = len(str(max(args.keys - 1, 0)))
    for k in range(args.keys):
        fabric.add_key(f"lock/{k:0{width}d}", protocol=args.protocol,
                       n=args.ring, config=config)
    clients = (args.clients if args.clients is not None
               else max(4, (args.keys * 12) // 5))
    grants_target = (args.grants if args.grants is not None
                     else args.keys * 25)
    fabric.add_workload(ClosedLoopKeyedWorkload(
        clients=clients, think_time=args.think_time, s=args.zipf_s))
    start = time.perf_counter()
    fabric.run(grants=grants_target)
    wall = time.perf_counter() - start

    metrics = fabric.metrics
    lane_crc = 0
    for stat in metrics.stats:
        lane_crc = zlib.crc32(b"%d|" % stat.grants, lane_crc)
    # The counters of the fabric_10k pin (tests/test_pins.py), folded to one
    # hex word so a CI job can carry them as one --expect-checksum argument.
    counters = {
        "keys": args.keys,
        "events": fabric.executed_total,
        "messages": fabric.sent_total,
        "grants": metrics.total_grants,
        "requests": metrics.total_requests,
        "p50_us": round(metrics.percentile(50.0) * 1e6),
        "p99_us": round(metrics.percentile(99.0) * 1e6),
        "lane_grants_crc": f"{lane_crc & 0xFFFFFFFF:08x}",
    }
    blob = json.dumps(counters, sort_keys=True).encode("utf-8")
    checksum = f"{zlib.crc32(blob):08x}"

    if args.json:
        print(json.dumps({
            "checksum": checksum, "counters": counters, "wall_s": wall,
            "events_per_second": (fabric.executed_total / wall
                                  if wall > 0 else 0.0),
            "summary": metrics.summary(),
        }, indent=2, sort_keys=True))
    else:
        print(format_table(
            [{"key": stat.key, "grants": stat.grants,
              "requests": stat.requests,
              "mean_resp": f"{stat.mean_responsiveness:.2f}",
              "max_resp": f"{stat.resp_max:.2f}",
              "mean_wait": f"{stat.mean_wait:.2f}"}
             for stat in metrics.hottest(args.top)],
            ["key", "grants", "requests", "mean_resp", "max_resp",
             "mean_wait"],
            title=(f"hottest {args.top} of {args.keys} keys | "
                   f"{args.protocol} x{args.ring} clients={clients} "
                   f"zipf_s={args.zipf_s:g}"),
        ))
        print(f"grants={metrics.total_grants} "
              f"requests={metrics.total_requests} "
              f"events={fabric.executed_total} "
              f"messages={fabric.sent_total} "
              f"p50={metrics.percentile(50.0):.3f} "
              f"p99={metrics.percentile(99.0):.3f}")
        print(f"wall={wall:.3f}s "
              f"({fabric.executed_total / wall if wall > 0 else 0.0:,.0f} "
              f"events/s) checksum={checksum}")

    if args.expect_checksum is not None:
        if checksum != args.expect_checksum.lower():
            print(f"checksum MISMATCH: expected {args.expect_checksum}, "
                  f"got {checksum}", file=sys.stderr)
            return 1
        print("checksum pinned: ok")
    return 0


def _describe(result) -> str:
    """One status phrase per result: what ran, and what it showed."""
    if result.skipped is not None:
        return f"skipped: {result.skipped}"
    if result.violation is not None:
        return f"VIOLATION {result.violation.get('invariant')}"
    text = f"ok  checksum={result.checksum or '-'}"
    if result.runtime is None:
        text += f" events={result.events}"
    else:
        text += (f" grants={result.grants} "
                 f"restarts={result.runtime['restarts']} "
                 f"max_wait={result.runtime['max_wait']:.2f}")
        load = result.runtime.get("load")
        if load is not None:
            text += (f" p50={load['wait_p50_ms']:.2f}ms "
                     f"p99={load['wait_p99_ms']:.2f}ms "
                     f"{load['throughput_ops_s']:.0f}ops/s")
    if result.stabilization is not None:
        stab = result.stabilization
        text += (f" episodes={stab['episodes']:.0f} "
                 f"stabilization_p99={stab['stabilization_p99']:.2f}")
    return text


def _cmd_run(args) -> int:
    from repro.errors import ConfigError

    try:
        return _run(args)
    except ConfigError as exc:  # unknown backend/profile, malformed file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    from repro.fuzz import FuzzCase, fuzz_run, run_case, shrink

    if args.measure is not None:
        from repro.faults.corruption import CORRUPTION_KINDS
        from repro.stabilize import measure_convergence

        if args.profile != "stabilize":
            print("error: --measure needs --profile stabilize",
                  file=sys.stderr)
            return 2
        n = args.measure
        corruptions = [
            (CORRUPTION_KINDS[i % len(CORRUPTION_KINDS)],
             (i * 3 + 1) % n, args.seed + i * 17)
            for i in range(args.episodes)
        ]
        doc = measure_convergence(n, corruptions, seed=args.seed)
        print(f"stabilize measure: n={n} episodes={doc['episodes']} "
              f"bound={doc['bound']:.1f}")
        print(f"  stabilization_time p50={doc['stabilization_p50']:.2f} "
              f"p99={doc['stabilization_p99']:.2f} "
              f"max={doc['max_stabilization_time']:.2f} "
              f"grants={doc['grants']}")
        return 0

    if args.replay:
        case, recorded = FuzzCase.load(args.replay)
        if args.backend is not None and args.backend != case.backend:
            # Another backend's checksum pins nothing here: replay for the
            # verdict alone.
            case, recorded = case.with_(backend=args.backend), None
        result = run_case(case)
        print(f"replay {args.replay} [{case.backend}]: {_describe(result)}")
        if recorded is None:
            return 1 if result.violation is not None else 0
        if result.matches(recorded):
            print("recorded outcome reproduced exactly")
            return 0
        print(f"MISMATCH: recorded {recorded}, got {result.outcome()}",
              file=sys.stderr)
        return 1

    backend = args.backend or "des"
    failures = []

    def _capture(index, case, result):
        print(f"  run {index:3d} {case.label or case.kind:32s} "
              f"{_describe(result)}")
        if result.violation is None:
            return
        final_case, final_result = case, result
        if args.shrink:
            final_case, final_result, attempts = shrink(case, result)
            print(f"    shrunk to {final_case.event_count()} schedule "
                  f"events (n={final_case.n}) in {attempts} attempts")
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"case-{args.seed}-{index}.json")
        final_case.save(path, outcome=final_result.outcome())
        failures.append((index, final_result.violation, path))
        print(f"    counterexample written to {path}")

    print(f"run: backend={backend} seed={args.seed} runs={args.runs} "
          f"profile={args.profile}")
    summaries = fuzz_run(args.seed, args.runs, args.profile,
                         on_result=_capture, backend=backend)
    ok = sum(1 for s in summaries if s["ok"])
    skipped = sum(1 for s in summaries if "skipped" in s)
    print(f"{ok}/{len(summaries)} runs clean"
          + (f", {skipped} skipped" if skipped else ""))
    for index, violation, path in failures:
        print(f"  run {index}: {violation.get('invariant')} -> {path}",
              file=sys.stderr)
    return 0 if not failures else 1


def _cmd_verify(args) -> int:
    import json as _json

    from repro.errors import VerifyError
    from repro.trs.engine import Rewriter
    from repro.trs.rules import RuleContext
    from repro.verify import (IndependenceRelation, certify, check_verdict,
                              get_system, validate_dpor, validate_relation,
                              write_verdict)

    quiet = args.json

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    if args.check:
        reports = []
        failed = False
        for path in args.check:
            try:
                reports.append(check_verdict(path, recompute=args.recompute))
                say(f"{path}: signature ok"
                    + (", recomputation ok" if args.recompute else ""))
            except (VerifyError, OSError) as exc:
                failed = True
                reports.append({"path": path, "error": str(exc)})
                print(f"{path}: FAILED: {exc}", file=sys.stderr)
        if args.json:
            print(_json.dumps(reports, indent=2, sort_keys=True))
        return 1 if failed else 0

    try:
        system = get_system(args.system)
    except VerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prop_names = args.properties or list(system.properties)

    report = {"system": system.key, "title": system.title}
    n = system.default_n
    rules = system.bounded(n)
    initial = system.initial(n)
    rewriter = Rewriter(rules, RuleContext())
    relation = IndependenceRelation(rules)
    report["independence"] = relation.summary()
    say(f"{system.title}: independence relation "
        f"{report['independence']}")

    violations, checks = validate_relation(rewriter, relation, initial)
    report["diamond"] = {"checks": checks, "violations": len(violations)}
    say(f"  diamond validation: {checks} commutation checks, "
        f"{len(violations)} violation(s)")
    for violation in violations[:5]:
        print(f"    {violation['rule_a']} vs {violation['rule_b']}: "
              f"{violation['reason']}", file=sys.stderr)

    dpor = validate_dpor(rewriter, initial, max_states=args.max_states,
                         relation=relation)
    report["dpor_self_check"] = dpor
    say(f"  sleep DPOR at n={n}: {dpor['dpor_states']} states / "
        f"{dpor['dpor_executed']} executed vs full "
        f"{dpor['full_states']} / {dpor['full_transitions']} "
        f"(exact={dpor['exact']})")

    verdicts = []
    failed = bool(violations) or not dpor["exact"]
    for prop_name in prop_names:
        try:
            say(f"  certifying {prop_name!r}:")
            verdict = certify(system.key, prop_name,
                              max_states=args.max_states, log=say)
        except VerifyError as exc:
            failed = True
            verdicts.append({"property": prop_name, "error": str(exc)})
            print(f"  {prop_name}: FAILED: {exc}", file=sys.stderr)
            continue
        verdicts.append(verdict)
        if verdict["result"] != "verified":
            failed = True
        say(f"  {prop_name}: {verdict['result']} "
            f"(cutoff {verdict['cutoff']}, "
            f"{sum(r['states'] for r in verdict['runs'])} states total)")
        if args.out:
            path = write_verdict(verdict, args.out)
            say(f"    verdict written to {path}")
    report["verdicts"] = verdicts

    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    return 1 if (failed and args.strict) else (1 if violations else 0)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.aio.cluster import AioCluster
    from repro.aio.reliability import ReliabilityConfig
    from repro.aio.supervisor import ClusterSupervisor
    from repro.wire.server import LockServiceServer
    from repro.wire.smoke import service_config
    from repro.wire.transport import WireTransport

    async def _serve() -> None:
        import random

        transport = WireTransport(delay=args.delay,
                                  loss_rate=args.loss_rate,
                                  rng=random.Random(args.seed ^ 0x5EED))
        cluster = AioCluster(
            args.protocol, args.nodes, seed=args.seed,
            config=service_config(args.protocol),
            transport=transport,
            reliability=(ReliabilityConfig() if args.reliability else None),
        )
        supervisor = ClusterSupervisor(cluster) if args.supervise else None
        server = LockServiceServer(cluster, host=args.host, port=args.port)
        await server.start()
        if supervisor is not None:
            await supervisor.start()
        print(f"lock service: {args.protocol} x{args.nodes} on "
              f"{server.address} (delay={args.delay:g}s, "
              f"reliability={'on' if args.reliability else 'off'}, "
              f"supervision={'on' if supervisor else 'off'})")
        print("Ctrl-C to stop", flush=True)
        # SIGTERM (kill, a service manager) stops the service the way
        # Ctrl-C does.  Where the loop cannot install signal handlers
        # (Windows), SIGTERM keeps its default action.
        stopped = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, stopped.set)
        except NotImplementedError:
            pass
        try:
            await stopped.wait()
        finally:
            if supervisor is not None:
                await supervisor.stop()
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("\nstopped")
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json

    from repro.wire.client import LoadGenerator

    async def _drive():
        generator = LoadGenerator(args.host, args.port, seed=args.seed,
                                  acquire_timeout=args.timeout)
        if args.mode == "closed":
            return await generator.run_closed_loop(
                args.clients, args.ops,
                think_time=args.think_time, hold_time=args.hold_time)
        return await generator.run_open_loop(
            args.mean_interval, args.ops,
            n=args.spread_nodes, hold_time=args.hold_time)

    try:
        report = asyncio.run(_drive())
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    doc = report.as_dict()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_table(
            [{"field": key, "value": value} for key, value in doc.items()
             if key != "error_samples"],
            ["field", "value"],
            title=f"{args.mode}-loop load vs {args.host}:{args.port}",
        ))
        for sample in doc["error_samples"]:
            print(f"  error: {sample}", file=sys.stderr)
    return 0 if report.errors == 0 and report.failures == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "figure9": _cmd_figure9,
    "figure10": _cmd_figure10,
    "ablations": _cmd_ablations,
    "refinement": _cmd_refinement,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "fabric": _cmd_fabric,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
