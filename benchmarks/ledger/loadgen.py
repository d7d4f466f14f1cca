"""The load generator: one asyncio loop, exact client-side timestamps.

Drives a lock service through :class:`repro.wire.client.LockClient`
(pipelining gives concurrency on at most ``nproc`` connections) and keeps
every latency as a float: ``perf_counter`` around ``LockClient.acquire``,
not a bucketed histogram and not the server's own ``reply.waited``.

Closed loop: ``connections x sessions`` callers, each acquire -> release
-> acquire.  Open loop: Poisson arrivals from
:func:`repro.workload.generators.open_loop_arrivals`, each timed **from
its due time**, so a stall is charged to every request queued behind it.

Every grant passes the :class:`MutexOracle` — the one token-uniqueness
check that does not share an address space with the server.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional, Tuple

from repro.errors import WireError
from repro.wire.client import LockClient
from repro.workload.generators import open_loop_arrivals

__all__ = ["LoadSpec", "LoadResult", "MutexOracle", "drive"]

WARMUP_S = 1.0
#: An open-loop repeat whose generator ran later than this (p99) is void:
#: its latencies would measure the harness, not the service.
LATE_LIMIT_MS = 5.0


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one wire workload's traffic."""

    connections: int = 1
    sessions: int = 1          # closed loop: callers per connection
    open_rate: float = 0.0     # open loop: arrivals per second (0 = closed)
    acquire_timeout: float = 10.0


class MutexOracle:
    """Counts grants outstanding across every session; mutual exclusion
    means the count never exceeds one."""

    def __init__(self) -> None:
        self.outstanding = 0
        self.violations = 0

    def granted(self) -> None:
        self.outstanding += 1
        if self.outstanding > 1:
            self.violations += 1

    def releasing(self) -> None:
        self.outstanding -= 1


@dataclass
class LoadResult:
    """What the generator saw in one repeat."""

    window: Tuple[float, float] = (0.0, 0.0)      # harness perf_counter
    #: (completed_at, latency_s) of every granted acquire
    grants: List[Tuple[float, float]] = field(default_factory=list)
    cycles: List[float] = field(default_factory=list)   # release-done times
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    late: List[float] = field(default_factory=list)     # open loop, seconds
    oracle: MutexOracle = field(default_factory=MutexOracle)
    cpu: Tuple[float, float] = (0.0, 0.0)               # harness process_time

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def in_window(self) -> List[float]:
        """Latencies of acquires granted inside the timed window."""
        lo, hi = self.window
        return [lat for at, lat in self.grants if lo <= at < hi]

    def cycles_in_window(self) -> int:
        lo, hi = self.window
        return sum(1 for at in self.cycles if lo <= at < hi)


async def _cycle(client: LockClient, spec: LoadSpec, result: LoadResult,
                 due: Optional[float] = None) -> None:
    """One acquire -> release, timed from ``due`` (or from now)."""
    result.attempted += 1
    started = time.perf_counter()
    if due is not None:
        result.late.append(started - due)
    try:
        reply = await client.acquire(timeout=spec.acquire_timeout)
        done = time.perf_counter()
        if not reply.ok:
            result.fail(f"acquire refused: {reply.error}")
            return
        result.oracle.granted()
        result.grants.append((done, done - (due if due is not None
                                            else started)))
        # Hold the grant across one loop turn: a second grant whose reply
        # is already in the socket buffer is then seen while this one is
        # still outstanding.
        await asyncio.sleep(0)
        result.oracle.releasing()
        released = await client.release(reply.node)
        if not released.ok:
            result.fail(f"release refused: {released.error}")
            return
        result.cycles.append(time.perf_counter())
    except WireError as exc:
        result.fail(f"wire error: {exc}")


async def drive(spec: LoadSpec, port: int, seed: int, seconds: float,
                mark: Callable[[], Awaitable[None]],
                result: LoadResult) -> None:
    """Warm up for ``WARMUP_S``, measure for ``seconds``, drain.

    ``mark`` is awaited at both edges of the timed window (the harness
    snapshots the server there).  Counts land in ``result`` as they
    happen, so a run that dies half-way still reports what it tried."""
    clients = [await LockClient("127.0.0.1", port).connect()
               for _ in range(spec.connections)]
    for index, client in enumerate(clients):
        # Distinct req_id ranges per connection, so that a server-side
        # span finds its client call by req_id alone.
        client._next_req = index * 10_000_000
    stop = asyncio.Event()
    tasks: List[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    origin = time.perf_counter()

    async def session(client: LockClient) -> None:
        while not stop.is_set():
            await _cycle(client, spec, result)

    async def arrivals(client: LockClient) -> None:
        horizon = WARMUP_S + seconds
        schedule = open_loop_arrivals(
            1.0 / spec.open_rate, int(spec.open_rate * horizon * 1.5) + 16,
            1, random.Random(seed))
        pending: List[asyncio.Task] = []
        for offset, _ in schedule:
            if offset >= horizon:
                break
            due = origin + offset
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            pending.append(loop.create_task(
                _cycle(client, spec, result, due=due)))
        await asyncio.gather(*pending)

    try:
        if spec.open_rate > 0:
            tasks.append(loop.create_task(arrivals(clients[0])))
        else:
            tasks.extend(loop.create_task(session(client))
                         for client in clients for _ in range(spec.sessions))
        await asyncio.sleep(max(0.0, origin + WARMUP_S - time.perf_counter()))
        await mark()
        cpu0, lo = time.process_time(), time.perf_counter()
        await asyncio.sleep(seconds)
        cpu1, hi = time.process_time(), time.perf_counter()
        await mark()
        result.window = (lo, hi)
        result.cpu = (cpu0, cpu1)
        stop.set()
        await asyncio.wait_for(asyncio.gather(*tasks),
                               spec.acquire_timeout + 5.0)
        status = await clients[0].status()
        if status.crashed:
            result.fail(f"status reports crashed nodes {status.crashed}")
    except asyncio.TimeoutError:
        result.fail("sessions did not drain")
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for client in clients:
            await client.aclose()
