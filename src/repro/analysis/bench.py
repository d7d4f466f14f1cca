"""Micro-benchmark suite with a persisted, machine-readable baseline.

``repro bench`` runs a small set of named benchmarks (reduced rounds, a
few seconds total) and writes the results to ``BENCH_<stamp>.json`` so
every change to the kernel or protocol cores leaves a perf trajectory to
regress against.  Each record carries a deterministic ``checksum`` (event
or message counts) so a throughput "win" that silently changed the
simulated behaviour is visible in review.

The document schema is versioned (``repro-bench/1``); :func:`validate`
raises :class:`~repro.errors.BenchSchemaError` on drift and is wired into
CI so the artifact format cannot rot unnoticed.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import BenchSchemaError

__all__ = [
    "SCHEMA",
    "collect",
    "compare",
    "validate",
    "write_baseline",
    "write_profile",
    "default_stamp",
]

SCHEMA = "repro-bench/1"

#: Required top-level keys of a baseline document.
_DOC_KEYS = ("schema", "created_utc", "host", "commit", "sanitize", "rounds",
             "results")

#: Required keys of each result record.
_RESULT_KEYS = ("name", "metric", "value", "unit", "wall_s", "checksum")


#: Timed repetitions per throughput bench; the best is reported (same
#: convention as pytest-benchmark's min — least noise, not average noise).
_REPEATS = 3

#: The array-compiled engine runs ~5x faster than the object stack, so a
#: single repeat is cheap — and the shared host this suite runs on jitters
#: by tens of percent between samples, which a larger best-of pool absorbs.
_FAST_REPEATS = 6


def _bench_des_throughput(rounds: int) -> Dict[str, Any]:
    """Simulator events/second on the loaded 64-node binary-search cluster
    (the same configuration as ``test_bench_trs_engine.py``)."""
    from repro.core.cluster import Cluster
    from repro.workload.generators import FixedRateWorkload

    def once() -> Tuple[float, int, int]:
        cluster = Cluster.build("binary_search", n=64, seed=3)
        cluster.add_workload(FixedRateWorkload(mean_interval=5.0))
        start = time.perf_counter()
        cluster.run(rounds=rounds, max_events=2_000_000)
        wall = time.perf_counter() - start
        return wall, cluster.sim.executed_total, cluster.messages.total

    once()  # warmup: import/alloc caches, branch predictors
    wall, events, messages = min(once() for _ in range(_REPEATS))
    return {
        "name": "des_cluster_64",
        "metric": "events_per_second",
        "value": events / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"events": events, "messages": messages},
    }


def _bench_fastsim_throughput(rounds: int) -> Dict[str, Any]:
    """Events/second of the array-compiled engine on the *same* loaded
    64-node binary-search cluster as ``des_cluster_64``.

    The checksum (event and message counts) must equal the object
    bench's record for the same rounds — that equality is the whole
    contract of :mod:`repro.fastsim`, and ``--compare`` enforces it
    every time both benches run."""
    from repro.fastsim import FastCluster
    from repro.workload.generators import FixedRateWorkload

    def once() -> Tuple[float, int, int]:
        cluster = FastCluster.build("binary_search", n=64, seed=3)
        cluster.add_workload(FixedRateWorkload(mean_interval=5.0))
        start = time.perf_counter()
        cluster.run(rounds=rounds, max_events=2_000_000)
        wall = time.perf_counter() - start
        return wall, cluster.executed_total, cluster.sent_total

    once()  # warmup: intern/memo/view caches, code objects
    wall, events, messages = min(once() for _ in range(_FAST_REPEATS))
    return {
        "name": "des_cluster_64_fast",
        "metric": "events_per_second",
        "value": events / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"events": events, "messages": messages},
    }


def _bench_ring_mega(rounds: int) -> Dict[str, Any]:
    """The 100,000-node sharded ring: four worker processes under
    conservative windows (:mod:`repro.fastsim.shard`).

    The horizon scales with ``rounds`` (40 -> 120k time units, a bit
    over one full circulation) so ``--compare`` reruns reproduce the
    checksum at the baseline's recorded rounds.  Wall time includes the
    fork/pipe choreography on purpose: that overhead *is* the cost of
    the sharded mode, and hiding it would overstate the win."""
    from repro.fastsim.shard import ShardedRingSim, mega_requests

    n, shards = 100_000, 4
    horizon = 3_000.0 * rounds
    requests = mega_requests(n, seed=2001, count=256, horizon=horizon)

    def once():
        sim = ShardedRingSim(n, shards, digest=True, processes=True)
        for at, node in requests:
            sim.request_at(at, node)
        start = time.perf_counter()
        result = sim.run(until=horizon)
        return time.perf_counter() - start, result

    wall, result = min((once() for _ in range(_REPEATS)),
                       key=lambda pair: pair[0])
    return {
        "name": "ring_mega_n100k",
        "metric": "events_per_second",
        "value": result.executed / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"events": result.executed, "messages": result.sent,
                     "grants": result.grants,
                     "digest": f"{result.crc_sum:016x}"},
    }


def _bench_fabric_10k(rounds: int) -> Dict[str, Any]:
    """The multi-token fabric at scale: 10,000 binary-search lanes (n = 3
    each — 30,000 protocol cores) multiplexed on one kernel through the
    batched scheduler, driven by a closed-loop Zipf client population in
    the saturation regime (every token hop serves a grant).

    The grants target scales with ``rounds`` (40 -> one million grants) so
    CI's reduced-rounds smoke stays cheap while the committed baseline
    records the full-scale run.  A single timed run, no warmup or repeats:
    at ~80 s for the full target, min-of-N would triple the suite's wall
    for noise reduction the long run already provides by averaging.

    ``value`` is logical events/second — directly comparable against
    ``des_cluster_64`` to bound the fabric's multiplexing overhead (the
    acceptance bar is within 3x of the single-key DES core).  The checksum
    pins counters, microsecond-rounded latency percentiles, and a CRC over
    the per-key grant distribution, so a perf win that shifted *which*
    keys won their grants fails ``--compare``.
    """
    import zlib

    from repro.core.config import ProtocolConfig
    from repro.fabric import TokenFabric
    from repro.workload.keyed import ClosedLoopKeyedWorkload

    n_keys, grants_target = 10_000, rounds * 25_000
    fabric = TokenFabric(seed=2001)
    config = ProtocolConfig(idle_pause=10_000.0)
    for k in range(n_keys):
        fabric.add_key(f"lock/{k:05d}", protocol="binary_search", n=3,
                       config=config)
    fabric.add_workload(ClosedLoopKeyedWorkload(clients=24_000,
                                                think_time=2.0, s=1.2))
    start = time.perf_counter()
    fabric.run(grants=grants_target)
    wall = time.perf_counter() - start
    events, messages = fabric.executed_total, fabric.sent_total
    metrics = fabric.metrics
    lane_crc = 0
    for stat in metrics.stats:
        lane_crc = zlib.crc32(b"%d|" % stat.grants, lane_crc)
    return {
        "name": "fabric_10k",
        "metric": "events_per_second",
        "value": events / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {
            "keys": n_keys,
            "events": events,
            "messages": messages,
            "grants": metrics.total_grants,
            "requests": metrics.total_requests,
            "p50_us": round(metrics.percentile(50.0) * 1e6),
            "p99_us": round(metrics.percentile(99.0) * 1e6),
            "lane_grants_crc": f"{lane_crc & 0xFFFFFFFF:08x}",
        },
    }


def _bench_fabric_zipf_fast(rounds: int) -> Dict[str, Any]:
    """The array-compiled fabric backend: 2,048 binary-search lanes on
    :class:`~repro.fastsim.cluster.FastCluster`'s fused loop, fed by a
    compiled open-loop Zipf arrival stream (realized inside the timed
    region — arrival compilation *is* part of this backend's cost).

    Lane independence makes this observably identical to the object
    fabric on the same configuration; ``tests/fabric/test_fast.py`` pins
    that equivalence per key, and this bench's digest checksum pins the
    compiled backend's own behaviour release over release.  The horizon
    scales with ``rounds`` (40 -> 1,000 virtual units, ~half a million
    events)."""
    from repro.core.config import ProtocolConfig
    from repro.fabric.fast import FastFabric
    from repro.workload.keyed import ZipfKeyedWorkload

    n_keys, horizon = 2_048, 25.0 * rounds
    config = ProtocolConfig(idle_pause=8.0)

    def build() -> FastFabric:
        fabric = FastFabric(seed=2001)
        for k in range(n_keys):
            fabric.add_key(f"lock/{k:04d}", protocol="binary_search", n=4,
                           config=config, digest=True)
        fabric.add_workload(ZipfKeyedWorkload(mean_interval=0.05, s=1.1,
                                              home_bias=0.7))
        return fabric

    def once(until: float):
        fabric = build()  # FastFabric.run is one-shot: fresh build per run
        start = time.perf_counter()
        fabric.run(until=until)
        return time.perf_counter() - start, fabric

    once(min(100.0, horizon))  # warmup: intern/memo caches, code objects
    wall, fabric = min((once(horizon) for _ in range(_REPEATS)),
                       key=lambda pair: pair[0])
    events, grants = fabric.executed_total, fabric.metrics.total_grants
    return {
        "name": "fabric_zipf_fast",
        "metric": "events_per_second",
        "value": events / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"keys": n_keys, "events": events,
                     "messages": fabric.sent_total, "grants": grants,
                     "digest": fabric.checksum()},
    }


def _bench_trs_reduction(rounds: int) -> Dict[str, Any]:
    """TRS steps/second of a safety-checked random reduction (n = 5).

    The rewriter is hoisted out of the timed region and kept alive across
    repeats: compiled matchers and intern tables are weakly keyed, so
    dropping the system between runs would measure cache eviction instead
    of steady-state matching.  Repeated seeded reductions on one rewriter
    are deterministic; the checksum pins the full trace (rule sequence and
    final state), not just the step count.
    """
    import hashlib

    from repro.specs import system_binary_search as bs
    from repro.specs.properties import prefix_property, token_uniqueness

    steps = max(50, rounds)
    rewriter, initial = bs.make_system(5)

    def once():
        start = time.perf_counter()
        reduction = rewriter.random_reduction(initial, steps, seed=7,
                                              weights={"1": 1.2, "2": 3.0,
                                                       "5": 0.5})
        reduction.check_invariant(prefix_property)
        reduction.check_invariant(token_uniqueness)
        return time.perf_counter() - start, reduction

    once()  # warmup: populate intern tables and compiled-matcher caches
    wall, reduction = min((once() for _ in range(_REPEATS)),
                          key=lambda pair: pair[0])
    trace = "|".join(step.rule_name for step in reduction.steps)
    digest = hashlib.md5(
        (trace + "||" + repr(reduction.final)).encode()).hexdigest()[:16]
    return {
        "name": "trs_reduction_n5",
        "metric": "steps_per_second",
        "value": len(reduction) / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"steps": len(reduction), "trace_md5": digest},
    }


def _bench_modelcheck_explore(rounds: int) -> Dict[str, Any]:
    """Exhaustive-exploration throughput: transitions/second of a complete
    BFS over System Token (n = 4, rule 1 bounded to one datum per node).

    Exercises the matcher's partial-product cache under heavy component
    sharing — successive states differ in one component, so most fragment
    enumerations should be cache hits."""
    from repro.specs import system_token as token
    from repro.specs.modelcheck import bound_data, explore_graph
    from repro.trs.engine import Rewriter

    base, initial = token.make_system(4)
    rewriter = Rewriter(bound_data(base.ruleset, 1), base.ctx)

    def once():
        start = time.perf_counter()
        graph = explore_graph(rewriter, initial)
        wall = time.perf_counter() - start
        return wall, (len(graph.states), graph.transitions, graph.complete)

    once()  # warmup
    wall, (states, transitions, complete) = min(
        (once() for _ in range(_REPEATS)), key=lambda pair: pair[0])
    return {
        "name": "modelcheck_explore_n4",
        "metric": "transitions_per_second",
        "value": transitions / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"states": states, "transitions": transitions,
                     "complete": complete},
    }


def _bench_trs_bag_match(rounds: int) -> Dict[str, Any]:
    """Indexed AC bag matching: four pattern shapes (plain, non-linear
    join, ground-argument filter, cross-functor join) enumerated against a
    15-element ground bag (12 ``f``/2 items + 3 ``g``/1 items)."""
    from repro.trs.matching import match
    from repro.trs.terms import Atom, Bag, Struct, Var

    target = Bag(
        [Struct("f", [Atom(i % 4), Atom(i)]) for i in range(12)]
        + [Struct("g", [Atom(i)]) for i in range(3)])
    rest = Var("R")
    patterns = [
        Bag([Struct("f", [Var("a"), Var("b")])], rest=rest),
        Bag([Struct("f", [Var("a"), Var("b")]),
             Struct("f", [Var("a"), Var("c")])], rest=rest),
        Bag([Struct("f", [Atom(2), Var("b")]),
             Struct("g", [Var("c")])], rest=rest),
        Bag([Struct("f", [Var("a"), Var("b")]),
             Struct("g", [Var("a")])], rest=rest),
    ]
    iters = max(200, rounds * 5)

    def once():
        start = time.perf_counter()
        total = 0
        for _ in range(iters):
            for pattern in patterns:
                total += sum(1 for _ in match(pattern, target))
        return time.perf_counter() - start, total

    once()  # warmup
    wall, total = min((once() for _ in range(_REPEATS)),
                      key=lambda pair: pair[0])
    return {
        "name": "trs_bag_match_n12",
        "metric": "matches_per_second",
        "value": total / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"matches_per_iter": total // iters},
    }


def _bench_timer_churn(rounds: int) -> Dict[str, Any]:
    """Kernel schedule/cancel storm: exercises handle-table cancellation
    and cancelled-entry compaction (the A4 retry-timer pattern)."""
    from repro.sim.kernel import Simulator

    timers = max(2_000, rounds * 50)
    start = time.perf_counter()
    sim = Simulator()
    survivors = 0
    for i in range(timers):
        event = sim.schedule(float(i % 97) + 1.0, int)
        if i % 10 != 0:
            event.cancel()  # 90 % cancelled: forces repeated compaction
        else:
            survivors += 1
    fired = sim.run()
    wall = time.perf_counter() - start
    return {
        "name": "kernel_timer_churn",
        "metric": "timers_per_second",
        "value": timers / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {"scheduled": timers, "fired": fired,
                     "survivors": survivors},
    }


def _bench_figure9_cell(rounds: int) -> Dict[str, Any]:
    """Wall time of one Figure-9 sweep cell (binary search, n = 64)."""
    from repro.analysis.experiments import run_protocol_once

    start = time.perf_counter()
    row = run_protocol_once("binary_search", n=64, mean_interval=10.0,
                            rounds=rounds, seed=2001)
    wall = time.perf_counter() - start
    return {
        "name": "figure9_cell_n64",
        "metric": "wall_seconds",
        "value": wall,
        "unit": "s",
        "wall_s": wall,
        "checksum": {"grants": int(row["grants"]),
                     "messages": int(row["messages_total"])},
    }


def _bench_aio_recovery(rounds: int) -> Dict[str, Any]:
    """MTTR of the supervised asyncio runtime: crash nodes in turn and
    measure crash-to-next-grant on the virtual clock.

    The reported value is *virtual* seconds — bit-exact across hosts (the
    checksum pins it scaled to microseconds) — while ``wall_s`` tracks how
    long the runtime takes to chew through the scenario for real.
    """
    from repro.analysis.experiments import run_aio_recovery

    cycles = max(3, min(rounds // 10, 6))
    start = time.perf_counter()
    outcome = run_aio_recovery(cycles)
    wall = time.perf_counter() - start
    return {
        "name": "aio_recovery_n5",
        "metric": "mttr_virtual_seconds",
        "value": outcome["mttr"],
        "unit": "s(virtual)",
        "wall_s": wall,
        "checksum": {"cycles": cycles,
                     "grants": outcome["grants"],
                     "restarts": outcome["restarts"],
                     "mttr_us": round(outcome["mttr"] * 1e6),
                     "max_ttr_us": round(outcome["max_ttr"] * 1e6)},
    }


def _bench_modelcheck_dpor(rounds: int) -> Dict[str, Any]:
    """Persistent-set DPOR speedup on System BinarySearch (n = 4, data at
    nodes 1-2, single-outstanding requests, 4 ring hops).

    Runs full BFS once to pin the reference state/transition counts, then
    times persistent-mode DPOR; the checksum pins both sides, so either an
    exploration-count drift or a reduction regression fails ``--compare``.
    The metric is the reduced exploration's throughput; ``speedup`` (full
    transitions / reduced executions) rides along in the checksum floor-ed
    to one decimal."""
    from repro.specs import system_binary_search as bs
    from repro.specs.modelcheck import (bound_data, bound_requests,
                                        bound_visits, explore_graph)
    from repro.trs.engine import Rewriter
    from repro.trs.rules import RuleContext
    from repro.verify.dpor import explore_dpor
    from repro.verify.independence import IndependenceRelation

    rules = bs.make_rules(4, restricted=True)
    rules = bound_data(rules, 1, nodes=(1, 2))
    rules = bound_requests(rules, "5")
    rules = bound_visits(rules, 4, "4")
    initial = bs.initial_state(4)
    rewriter = Rewriter(rules, RuleContext())
    relation = IndependenceRelation(rules)
    graph = explore_graph(rewriter, initial)

    def once():
        start = time.perf_counter()
        result = explore_dpor(rewriter, initial, mode="persistent",
                              relation=relation)
        return time.perf_counter() - start, result

    once()  # warmup
    wall, result = min((once() for _ in range(_REPEATS)),
                       key=lambda pair: pair[0])
    speedup = graph.transitions / max(result.executed, 1)
    return {
        "name": "modelcheck_dpor_n4",
        "metric": "reduced_transitions_per_second",
        "value": result.executed / wall if wall > 0 else 0.0,
        "unit": "1/s",
        "wall_s": wall,
        "checksum": {
            "full_states": len(graph.states),
            "full_transitions": graph.transitions,
            "full_complete": graph.complete,
            "dpor_states": result.states,
            "dpor_executed": result.executed,
            "dpor_complete": result.complete,
            "speedup_x10": int(speedup * 10),
        },
    }


def _bench_stabilize_n9(rounds: int) -> Dict[str, Any]:
    """Convergence time of the stabilizing core (n = 9) under k-token and
    scrambled-stamp corruption.

    Alternates ``duplicate_token`` (a second token conjured at a rotating
    victim — the epoch-fenced reduction path) with ``scramble_stamp``
    (round/grant-sequencing garbage — the local-repair path), one episode
    per injection, spaced past the convergence bound.  Virtual-time
    samples are bit-exact across hosts; the checksum pins the episode
    count and microsecond-rounded percentiles, so a convergence-speed
    regression fails ``--compare`` loudly.  The reported value is the p99
    stabilization time in virtual seconds."""
    from repro.stabilize import measure_convergence

    episodes = max(6, min(rounds // 4, 12))
    corruptions = [
        ("duplicate_token" if i % 2 == 0 else "scramble_stamp",
         (i * 4 + 2) % 9, 101 + i * 37)
        for i in range(episodes)
    ]
    start = time.perf_counter()
    doc = measure_convergence(9, corruptions, seed=2001)
    wall = time.perf_counter() - start
    return {
        "name": "stabilize_n9",
        "metric": "stabilization_p99_virtual_seconds",
        "value": doc["stabilization_p99"],
        "unit": "s(virtual)",
        "wall_s": wall,
        "checksum": {
            "episodes": doc["episodes"],
            "injections": doc["injections"],
            "grants": doc["grants"],
            "p50_us": round(doc["stabilization_p50"] * 1e6),
            "p99_us": round(doc["stabilization_p99"] * 1e6),
            "max_us": round(doc["max_stabilization_time"] * 1e6),
        },
    }


_BENCHES: List[Callable[[int], Dict[str, Any]]] = [
    _bench_des_throughput,
    _bench_fastsim_throughput,
    _bench_ring_mega,
    _bench_fabric_10k,
    _bench_fabric_zipf_fast,
    _bench_trs_reduction,
    _bench_modelcheck_explore,
    _bench_modelcheck_dpor,
    _bench_trs_bag_match,
    _bench_timer_churn,
    _bench_figure9_cell,
    _bench_aio_recovery,
    _bench_stabilize_n9,
]


def _git_commit() -> str:
    """Best-effort current commit hash (``unknown`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _memory_probe(bench: Callable[[int], Dict[str, Any]], rounds: int,
                  trace: bool) -> Dict[str, Any]:
    """Run one bench with memory accounting attached to its record.

    Always recorded (cheap, no timing distortion):

    - ``ru_maxrss_kb`` — process peak RSS after the bench.  Kernel
      high-water, monotone across the suite: the first bench to touch a
      peak owns it, later records repeat it.
    - ``objects_delta`` — live Python objects gained across the bench
      (post-GC), which catches caches that keep growing run over run.

    With ``trace`` (the CLI's ``--mem``), ``tracemalloc`` wraps the
    bench and adds ``tracemalloc_peak_kb`` — exact peak *allocated*
    bytes attributable to the bench alone.  Tracing slows allocation
    several-fold, so traced documents carry honest-but-slow ``value``
    fields; never commit one as the perf baseline.
    """
    import gc
    import resource
    import tracemalloc

    gc.collect()
    objects_before = len(gc.get_objects())
    if trace:
        tracemalloc.start()
    record = bench(rounds)
    memory: Dict[str, Any] = {}
    if trace:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        memory["tracemalloc_peak_kb"] = peak // 1024
    gc.collect()
    memory["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    memory["objects_delta"] = len(gc.get_objects()) - objects_before
    record["memory"] = memory
    return record


def collect(rounds: int = 40, trace_memory: bool = False) -> Dict[str, Any]:
    """Run the whole suite and return the baseline document."""
    from repro.lint.sanitizer import sanitize_enabled

    results = [_memory_probe(bench, rounds, trace_memory)
               for bench in _BENCHES]
    return {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
        },
        "commit": _git_commit(),
        "sanitize": sanitize_enabled(),
        "rounds": rounds,
        "results": results,
    }


def validate(doc: Dict[str, Any]) -> None:
    """Raise :class:`BenchSchemaError` unless ``doc`` matches the schema."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"baseline must be an object, got {type(doc).__name__}")
    missing = [key for key in _DOC_KEYS if key not in doc]
    if missing:
        raise BenchSchemaError(f"baseline missing top-level keys: {missing}")
    if doc["schema"] != SCHEMA:
        raise BenchSchemaError(
            f"schema mismatch: expected {SCHEMA!r}, got {doc['schema']!r}")
    if not isinstance(doc["results"], list) or not doc["results"]:
        raise BenchSchemaError("baseline has no results")
    for record in doc["results"]:
        if not isinstance(record, dict):
            raise BenchSchemaError(f"result is not an object: {record!r}")
        absent = [key for key in _RESULT_KEYS if key not in record]
        if absent:
            raise BenchSchemaError(
                f"result {record.get('name', '?')!r} missing keys: {absent}")
        if not isinstance(record["value"], (int, float)):
            raise BenchSchemaError(
                f"result {record['name']!r} value is not numeric")


def compare(doc: Dict[str, Any], baseline: Dict[str, Any],
            regression_pct: Optional[float] = None) -> Tuple[List[str], bool]:
    """Per-workload comparison of a fresh run against a stored baseline.

    Returns ``(lines, ok)``.  ``ok`` is False when a *shared* workload's
    behaviour drifted — its checksum differs — and, when
    ``regression_pct`` is given, also when a shared workload's metric
    regressed by more than that many percent (lower throughput for rate
    metrics, longer wall time for duration metrics).  Without a
    threshold, deltas are reported in the lines but never affect ``ok``
    — perf varies with the host; the simulated behaviour must not.

    The workload *set* is allowed to drift between releases (benches are
    added and retired): additions and removals are each reported on
    their own line plus a summary, but neither silently intersects the
    comparison away nor fails it.  The one exception: when the two
    documents share **no** workloads, the comparison is vacuous and
    ``ok`` is False — a green result must mean something was compared.
    """
    validate(doc)
    validate(baseline)
    current = {record["name"]: record for record in doc["results"]}
    known = set()
    ok = True
    shared = 0
    removed: List[str] = []
    lines: List[str] = []
    for base in baseline["results"]:
        name = base["name"]
        known.add(name)
        record = current.get(name)
        if record is None:
            removed.append(name)
            lines.append(f"{name}: removed (in baseline, not in this run)")
            continue
        shared += 1
        old, new = base["value"], record["value"]
        pct = (new - old) / old * 100.0 if old else float("inf")
        # For duration metrics ("s" units) bigger is worse; flip the
        # sign so "regressed" always means a negative adjusted delta.
        worse_pct = -pct if record["unit"].startswith("s") else pct
        same = record["checksum"] == base["checksum"]
        if not same:
            ok = False
        regressed = (regression_pct is not None
                     and worse_pct < -abs(regression_pct))
        if regressed:
            ok = False
        verdict = ("checksum OK" if same else
                   f"CHECKSUM MISMATCH: {record['checksum']!r} != "
                   f"{base['checksum']!r}")
        if regressed:
            verdict += (f", REGRESSION beyond {abs(regression_pct):.1f}% "
                        "threshold")
        lines.append(
            f"{name}: {base['metric']} {old:.1f} -> {new:.1f} "
            f"{record['unit']} ({pct:+.1f}%), {verdict}")
    added = [name for name in current if name not in known]
    for name in added:
        lines.append(f"{name}: added (no baseline entry)")
    if added or removed:
        lines.append(f"workload set drift: +{len(added)} added, "
                     f"-{len(removed)} removed, {shared} shared compared")
    if shared == 0:
        ok = False
        lines.append("no shared workloads: nothing was compared")
    return lines, ok


def write_profile(stats_text: str, out_dir: str = ".",
                  stamp: Optional[str] = None) -> str:
    """Persist a profile report as ``PROFILE_<stamp>.txt`` next to the
    baseline of the same stamp; returns the path written."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"PROFILE_{stamp or default_stamp()}.txt")
    with open(path, "w") as handle:
        handle.write(stats_text)
        if not stats_text.endswith("\n"):
            handle.write("\n")
    return path


def default_stamp() -> str:
    """UTC timestamp used in the baseline filename."""
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


def write_baseline(doc: Dict[str, Any], out_dir: str = ".",
                   stamp: Optional[str] = None) -> str:
    """Validate and persist ``doc`` as ``<out_dir>/BENCH_<stamp>.json``;
    returns the path written."""
    validate(doc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{stamp or default_stamp()}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
