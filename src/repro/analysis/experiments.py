"""Experiment runners for the paper's figures and this repo's ablations.

Each runner returns a list of result-row dicts and is shared by the
benchmark suite (which prints the paper-style series) and the examples.
All runners take a seed and are deterministic.

Every sweep is expressed as a grid of independent cells and executed by
:mod:`repro.analysis.runner`: pass ``jobs`` (or set ``REPRO_JOBS``) to fan
the cells out over worker processes.  Parallel output is row-for-row
identical to serial output for the same seeds — cells share nothing, and
the engine merges rows in cell order.

Paper experiments (Section 4.3; the paper has figures only, no tables):

- :func:`run_figure9` — fixed load (mean inter-request interval 10),
  average responsiveness vs. number of processors;
- :func:`run_figure10` — fixed n = 100, average responsiveness vs. load.

Ablations (Section 4.4 design choices):

- :func:`run_gc_ablation` — trap GC policy vs. storage and dummy loans;
- :func:`run_directed_ablation` — delegated vs. directed search messages;
- :func:`run_push_pull_ablation` — pull vs. push vs. hybrid;
- :func:`run_throttle_ablation` — single-outstanding-request throttling;
- :func:`run_adaptive_speed_ablation` — idle-pause vs. message overhead.

Extension (Section 5): :func:`run_aio_recovery` — crash-to-next-grant of
the supervised asyncio stack, on the virtual clock.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.runner import Cell, run_cells
from repro.core.cluster import Cluster
from repro.core.config import GC_INVERSE, GC_NONE, GC_ROTATION, ProtocolConfig
from repro.core.parts import Advertise
from repro.core.protocols import ROWS
from repro.workload.generators import FixedRateWorkload

__all__ = [
    "run_protocol_once",
    "run_figure9",
    "run_figure10",
    "run_gc_ablation",
    "run_directed_ablation",
    "run_push_pull_ablation",
    "run_throttle_ablation",
    "run_adaptive_speed_ablation",
    "run_aio_recovery",
    "DEFAULT_FIG9_SIZES",
    "DEFAULT_FIG10_INTERVALS",
]

#: Paper set-up: the token visited each node at least 1000 times per run.
PAPER_ROUNDS = 1000

DEFAULT_FIG9_SIZES = (8, 16, 32, 64, 128, 256)
DEFAULT_FIG10_INTERVALS = (1, 2, 5, 10, 20, 50, 100, 200, 500)


def _metric_columns(cluster: Cluster) -> Tuple[Dict[str, float], int]:
    """Row-builder core shared by every runner.

    Returns the common metric columns plus the grants count clamped to 1
    (for per-grant rates), reading each tracker metric exactly once.
    """
    tracker = cluster.responsiveness
    grants = tracker.grants()
    clamped = max(grants, 1)
    columns = {
        "grants": grants,
        "avg_responsiveness": tracker.average_responsiveness(),
        "messages_total": cluster.messages.total,
        "messages_per_grant": cluster.messages.total / clamped,
    }
    return columns, clamped


def run_protocol_once(
    protocol: str,
    n: int,
    mean_interval: float,
    rounds: int,
    seed: int,
    config: Optional[ProtocolConfig] = None,
    workload=None,
) -> Dict[str, float]:
    """One simulation run; returns the metrics row."""
    cluster = Cluster.build(protocol, n=n, seed=seed, config=config)
    if workload is None:
        workload = FixedRateWorkload(mean_interval=mean_interval)
    cluster.add_workload(workload)
    cluster.run(rounds=rounds, max_events=100_000_000)
    tracker = cluster.responsiveness
    columns, _ = _metric_columns(cluster)
    row = {
        "protocol": protocol,
        "n": n,
        "mean_interval": mean_interval,
        "rounds": cluster.rounds,
        "max_responsiveness": tracker.max_responsiveness(),
        "avg_waiting": tracker.average_waiting(),
        "messages_cheap": cluster.messages.cheap,
        "messages_expensive": cluster.messages.expensive,
        "token_passes": cluster.messages.token_passes(),
        "search_messages": cluster.messages.search_messages(),
        "loans": cluster.messages.count("LoanMsg"),
    }
    row.update(columns)
    return row


def run_figure9(
    sizes: Sequence[int] = DEFAULT_FIG9_SIZES,
    mean_interval: float = 10.0,
    rounds: int = PAPER_ROUNDS,
    seed: int = 2001,
    protocols: Sequence[str] = ("ring", "binary_search"),
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 9: average responsiveness vs. number of processors under a
    fixed load of one request per ``mean_interval`` time units."""
    cells = [
        Cell(key=("figure9", n, protocol), fn=run_protocol_once,
             kwargs=dict(protocol=protocol, n=n, mean_interval=mean_interval,
                         rounds=rounds, seed=seed))
        for n in sizes
        for protocol in protocols
    ]
    return run_cells(cells, jobs=jobs)


def run_figure10(
    intervals: Sequence[float] = DEFAULT_FIG10_INTERVALS,
    n: int = 100,
    rounds: int = PAPER_ROUNDS,
    seed: int = 2001,
    protocols: Sequence[str] = ("ring", "binary_search"),
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 10: average responsiveness vs. load at fixed ``n``; the ring
    approaches n/2 while BinarySearch approaches log n from below."""
    cells = [
        Cell(key=("figure10", float(interval), protocol), fn=run_protocol_once,
             kwargs=dict(protocol=protocol, n=n,
                         mean_interval=float(interval), rounds=rounds,
                         seed=seed))
        for interval in intervals
        for protocol in protocols
    ]
    return run_cells(cells, jobs=jobs)


# -- ablation cells (module-level so they pickle under spawn) -------------------


def _gc_cell(policy: str, n: int, mean_interval: float, rounds: int,
             seed: int) -> Dict[str, float]:
    """One arm of ablation A1 (trap GC policy)."""
    config = ProtocolConfig(trap_gc=policy)
    cluster = Cluster.build("binary_search", n=n, seed=seed, config=config)
    cluster.add_workload(FixedRateWorkload(mean_interval=mean_interval))
    cluster.run(until=float(rounds * n), max_events=100_000_000)
    columns, clamped = _metric_columns(cluster)
    loans = cluster.messages.count("LoanMsg")
    dummy = max(0, loans - columns["grants"])
    row = {
        "protocol": "binary_search",
        "trap_gc": policy,
        "n": n,
        "loans": loans,
        "dummy_loans": dummy,
        "dummy_per_grant": dummy / clamped,
    }
    row.update(columns)
    return row


def _directed_cell(protocol: str, n: int, mean_interval: float, rounds: int,
                   seed: int) -> Dict[str, float]:
    """One arm of ablation A2 (delegated vs. directed search)."""
    row = run_protocol_once(protocol, n=n, mean_interval=mean_interval,
                            rounds=rounds, seed=seed)
    clamped = max(row["grants"], 1)
    row["search_per_grant"] = row["search_messages"] / clamped
    row["log2n"] = math.log2(n)
    return row


def _push_pull_cell(protocol: str, interval: float, n: int, rounds: int,
                    seed: int) -> Dict[str, float]:
    """One arm of ablation A3 (pull vs. push vs. hybrid)."""
    config = ProtocolConfig()
    if ROWS[protocol].has(Advertise):
        config.idle_pause = 2.0  # adverts only flow from a parked token
    # Fixed virtual-time horizon: a parked (push) token makes no rounds,
    # so rounds-based termination would not be comparable.
    cluster = Cluster.build(protocol, n=n, seed=seed, config=config)
    cluster.add_workload(FixedRateWorkload(mean_interval=float(interval)))
    cluster.run(until=float(rounds * n), max_events=100_000_000)
    columns, _ = _metric_columns(cluster)
    row = {
        "protocol": protocol,
        "n": n,
        "mean_interval": float(interval),
        "messages_cheap": cluster.messages.cheap,
        "messages_expensive": cluster.messages.expensive,
    }
    row.update(columns)
    return row


def _throttle_cell(throttled: bool, n: int, mean_interval: float, rounds: int,
                   seed: int) -> Dict[str, float]:
    """One arm of ablation A4 (gimme throttle)."""
    from repro.core.messages import GimmeMsg

    config = ProtocolConfig(single_outstanding=throttled,
                            forward_throttle=throttled,
                            retry_timeout=10.0)
    cluster = Cluster.build("binary_search", n=n, seed=seed, config=config)
    issued = [0]

    def count_issued(src, dst, msg, issued=issued):
        if isinstance(msg, GimmeMsg) and len(msg.trail) == 1:
            issued[0] += 1

    cluster.network.on_send.append(count_issued)
    cluster.add_workload(FixedRateWorkload(mean_interval=mean_interval))
    cluster.run(until=float(rounds * n), max_events=100_000_000)
    columns, _ = _metric_columns(cluster)
    row = {
        "protocol": "binary_search",
        "single_outstanding": throttled,
        "n": n,
        "issued_gimmes": issued[0],
        "search_messages": cluster.messages.search_messages(),
        "token_passes": cluster.messages.token_passes(),
    }
    row.update(columns)
    return row


def _speed_cell(pause: float, n: int, mean_interval: float, rounds: int,
                seed: int) -> Dict[str, float]:
    """One arm of ablation A5 (adaptive token speed)."""
    config = ProtocolConfig(idle_pause=pause)
    # Run by time, not rounds: parking makes rounds slow by design.
    cluster = Cluster.build("binary_search", n=n, seed=seed, config=config)
    cluster.add_workload(FixedRateWorkload(mean_interval=mean_interval))
    horizon = float(rounds * n)
    cluster.run(until=horizon, max_events=100_000_000)
    columns, _ = _metric_columns(cluster)
    row = {
        "protocol": "binary_search",
        "idle_pause": pause,
        "n": n,
        "mean_interval": mean_interval,
        "messages_per_time": cluster.messages.total / horizon,
    }
    row.update(columns)
    return row


# -- ablation sweeps ------------------------------------------------------------


def run_gc_ablation(
    n: int = 64,
    mean_interval: float = 20.0,
    rounds: int = 300,
    seed: int = 2001,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Ablation A1: trap garbage-collection policies.  ``none`` lets stale
    traps fire dummy loans; ``rotation`` expires them (clock + served
    piggyback); ``inverse`` clears them along the loan's trail.

    All policies run for the same *virtual-time* horizon (``rounds * n``)
    so rates are directly comparable — loan-heavy runs advance the token
    clock more slowly, which would skew a rounds-based comparison."""
    cells = [
        Cell(key=("gc", policy), fn=_gc_cell,
             kwargs=dict(policy=policy, n=n, mean_interval=mean_interval,
                         rounds=rounds, seed=seed))
        for policy in (GC_NONE, GC_ROTATION, GC_INVERSE)
    ]
    return run_cells(cells, jobs=jobs)


def run_directed_ablation(
    sizes: Sequence[int] = (16, 32, 64, 128, 256),
    mean_interval: float = 50.0,
    rounds: int = 200,
    seed: int = 2001,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Ablation A2: delegated (gimme) vs. directed (probe/reply) search.
    Directed search uses up to 2·log N messages per request but can stop
    early when the rotation wins the race."""
    cells = [
        Cell(key=("directed", n, protocol), fn=_directed_cell,
             kwargs=dict(protocol=protocol, n=n, mean_interval=mean_interval,
                         rounds=rounds, seed=seed))
        for n in sizes
        for protocol in ("binary_search", "directed_search")
    ]
    return run_cells(cells, jobs=jobs)


def run_push_pull_ablation(
    n: int = 64,
    intervals: Sequence[float] = (5.0, 20.0, 100.0, 500.0),
    rounds: int = 200,
    seed: int = 2001,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Ablation A3: pull (binary search) vs. push (parked virtual root +
    adverts) vs. the combined scheme, across loads.  Push/hybrid run with
    an idle pause so the token can park and advertise."""
    cells = [
        Cell(key=("push_pull", float(interval), protocol), fn=_push_pull_cell,
             kwargs=dict(protocol=protocol, interval=float(interval), n=n,
                         rounds=rounds, seed=seed))
        for interval in intervals
        for protocol in ("binary_search", "push", "hybrid")
    ]
    return run_cells(cells, jobs=jobs)


def run_throttle_ablation(
    n: int = 64,
    mean_interval: float = 5.0,
    rounds: int = 100,
    seed: int = 2001,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Ablation A4: the Section 4.4 single-outstanding-request throttle.

    Both arms retry while waiting (retry_timeout = 10); the throttled arm
    additionally enforces the strong form of the remark — at most one
    gimme (own or forwarded) in flight per node — which bounds total gimme
    traffic by the number of token passes."""
    cells = [
        Cell(key=("throttle", throttled), fn=_throttle_cell,
             kwargs=dict(throttled=throttled, n=n,
                         mean_interval=mean_interval, rounds=rounds,
                         seed=seed))
        for throttled in (True, False)
    ]
    return run_cells(cells, jobs=jobs)


def run_adaptive_speed_ablation(
    n: int = 64,
    pauses: Sequence[float] = (0.0, 1.0, 5.0, 20.0),
    mean_interval: float = 200.0,
    rounds: int = 100,
    seed: int = 2001,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Ablation A5: adaptive token speed under a light load.  Longer idle
    pauses slash rotation messages; the binary search keeps responsiveness
    logarithmic because a parked token is found where it sleeps."""
    cells = [
        Cell(key=("speed", pause), fn=_speed_cell,
             kwargs=dict(pause=pause, n=n, mean_interval=mean_interval,
                         rounds=rounds, seed=seed))
        for pause in pauses
    ]
    return run_cells(cells, jobs=jobs)


def run_aio_recovery(cycles: int = 4) -> Dict[str, float]:
    """Crash supervised nodes in turn and time crash-to-next-grant.

    Each cycle crashes one node of a supervised ``fault_tolerant``
    :class:`~repro.aio.cluster.AioCluster` (ARQ, the supervisor's
    grant-wait detection and restarts), acquires two hops downstream, and
    gives the supervisor a second to repair the victim.  The run is driven by
    :func:`~repro.aio.virtualtime.run_virtual`, so ``mttr`` and
    ``max_ttr`` are *virtual* seconds, bit-exact across hosts."""
    import asyncio

    from repro.aio.cluster import AioCluster
    from repro.aio.reliability import ReliabilityConfig
    from repro.aio.supervisor import ClusterSupervisor
    from repro.aio.virtualtime import run_virtual
    from repro.metrics.tracing import RecoveryTracker
    from repro.wire.smoke import service_config

    n = 5

    async def scenario() -> Dict[str, float]:
        cluster = AioCluster(
            "fault_tolerant", n, seed=2001,
            config=service_config("fault_tolerant"),
            delay=0.01, reliability=ReliabilityConfig())
        supervisor = ClusterSupervisor(cluster)
        tracker = RecoveryTracker()
        await cluster.start()
        await supervisor.start()
        loop = asyncio.get_running_loop()
        await asyncio.sleep(1.0)  # idle rotation before the first crash
        for cycle in range(cycles):
            victim = cycle % n
            tracker.fault(("crash", cycle), loop.time())
            cluster.crash(victim)
            requester = (victim + 2) % n
            await cluster.acquire(requester, timeout=30.0)
            tracker.recovered(("crash", cycle), loop.time())
            cluster.release(requester)
            await asyncio.sleep(1.0)  # let the supervisor repair the victim
        await supervisor.stop()
        await cluster.stop()
        return {"cycles": cycles, "grants": len(cluster.grant_order),
                "restarts": sum(supervisor.restarts.values()),
                "mttr": tracker.mttr(), "max_ttr": tracker.max_ttr()}

    return run_virtual(scenario())
