"""Batched scheduling for multiplexing many protocol instances on one kernel.

The fabric runs thousands of independent token instances ("lanes") over a
single :class:`repro.sim.kernel.Simulator`.  Pushing every lane's message
delivery and timer straight onto the kernel heap would make the heap — an
O(log n) structure — scale with *total* event volume across all keys.
Instead, :class:`BatchScheduler` coalesces all lane events into per-time
FIFO buckets: the kernel heap sees **one event per distinct timestamp**,
and firing a bucket walks its entries in insertion order.  With constant
message delay (the paper's model) thousands of same-time deliveries across
keys collapse into a single heap entry.

Determinism is the load-bearing property.  A lane must behave bit-for-bit
like a standalone :class:`~repro.core.cluster.Cluster` with the same seed:
per-key event *times* are unchanged (batching never alters timestamps) and
per-key *relative order* of same-time events is unchanged because every
lane event — message delivery, protocol timer, workload tick — goes through
the same bucket, which preserves global scheduling (FIFO) order, which in
turn preserves each lane's scheduling order.  Mixing bucketed and direct
heap entries would break this (a bucket drains fully before any interleaved
direct entry), which is why :class:`SimView` routes *everything* a lane
schedules through the batch layer.

Timers use tombstone cancellation: :meth:`BatchScheduler.schedule` returns
a :class:`BatchTimer` whose ``cancel()`` merely flags the entry; the bucket
drops flagged entries when it fires.  Buckets are short-lived (near-future
times), so no compaction pass is needed — this is the "amortized timer
wheel": 10k idle lanes parked on long ``idle_pause`` timers cost one heap
entry per distinct wake time, not one per lane.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

__all__ = ["BatchScheduler", "BatchTimer", "SimView"]


class BatchTimer:
    """Cancellation handle for a batched entry (``Event``-shaped).

    Duck-types :class:`repro.sim.kernel.Event` for the one method the
    driver stack uses: ``cancel()``.  Cancellation is a tombstone — the
    entry stays in its bucket and is skipped when the bucket fires.
    """

    __slots__ = ("fn", "args", "time", "cancelled")

    def __init__(self, fn: Callable, args: Tuple, time: float) -> None:
        self.fn = fn
        self.args = args
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the entry from firing (idempotent)."""
        self.cancelled = True


#: Bucket entry: a plain (fn, args) tuple for fire-and-forget posts, or a
#: BatchTimer for cancellable schedules.  Tuples dominate (message traffic),
#: so the fire loop type-checks for tuple first.
_Entry = Union[Tuple[Callable, Tuple], BatchTimer]


class BatchScheduler:
    """Per-time FIFO buckets multiplexed onto one kernel event each.

    ``executed_total`` counts *logical* entries fired (cancelled tombstones
    excluded) — the fabric's analogue of ``Simulator.executed_total``,
    which under batching would only count bucket firings.
    """

    __slots__ = ("sim", "executed_total", "_buckets", "_sim_post")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._sim_post = sim.post
        self.executed_total = 0
        # time -> insertion-ordered entries; a bucket is popped atomically
        # when it fires, so same-time entries added *during* firing open a
        # fresh bucket (and a fresh kernel event) — matching the kernel's
        # "new seq fires after already-queued same-time events" order.
        self._buckets: Dict[float, List[_Entry]] = {}

    def pending(self) -> int:
        """Live (non-cancelled) entries still queued — O(buckets)."""
        total = 0
        for entries in self._buckets.values():
            for entry in entries:
                if type(entry) is tuple or not entry.cancelled:
                    total += 1
        return total

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Batch ``fn(*args)`` at ``now + delay`` with no handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.sim._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            self._sim_post(delay, self._fire, time)
        else:
            bucket.append((fn, args))

    def schedule(self, delay: float, fn: Callable, *args: Any) -> BatchTimer:
        """Batch ``fn(*args)`` at ``now + delay``; returns a cancel handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.sim._now + delay
        timer = BatchTimer(fn, args, time)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [timer]
            self._sim_post(delay, self._fire, time)
        else:
            bucket.append(timer)
        return timer

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> BatchTimer:
        """Batch ``fn(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.sim.now, fn, *args)

    def _fire(self, time: float) -> None:
        """Kernel callback: drain the bucket for ``time`` in FIFO order."""
        entries = self._buckets.pop(time)
        executed = 0
        for entry in entries:
            if type(entry) is tuple:
                entry[0](*entry[1])
                executed += 1
            elif not entry.cancelled:
                entry.fn(*entry.args)
                executed += 1
        self.executed_total += executed


class SimView(Simulator):
    """A lane's view of the shared kernel: same surface, batched routing.

    Passed as ``Cluster(sim=...)``, it is the clock of the lane's
    :class:`~repro.sim.network.Network` and
    :class:`~repro.sim.driver.NodeDriver` and the scheduler of its
    workload generators, which need no changes: everything they schedule
    lands in the shared batch layer.  Subclasses :class:`Simulator` only
    so ``isinstance`` checks hold (the driver reads a simulator's
    exception policy and timer units off one); no kernel state of its own
    is used.  ``run`` and ``stop`` raise: lanes are driven by the owning
    fabric.
    """

    __slots__ = ()  # state lives on the two references below

    def __init__(self, scheduler: BatchScheduler) -> None:
        # Deliberately no super().__init__(): this view owns no heap.
        self._kernel = scheduler.sim
        self._batch = scheduler
        # The scheduler's bound methods, one frame less per event.
        self.post = scheduler.post
        self.schedule = self.call_later = scheduler.schedule
        self.schedule_at = scheduler.schedule_at

    # Simulator declares no __slots__, so instance attrs work; declare the
    # two we use for readability.
    _kernel: Simulator
    _batch: BatchScheduler

    @property
    def now(self) -> float:
        return self._kernel._now  # skip the kernel's property hop

    def time(self) -> float:
        return self._kernel._now

    @property
    def executed_total(self) -> int:
        """Logical entries fired fabric-wide (shared across lanes)."""
        return self._batch.executed_total

    def pending(self) -> int:
        return self._batch.pending()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        raise SimulationError(
            "fabric lanes cannot run the kernel; drive the TokenFabric")

    def stop(self) -> None:
        raise SimulationError(
            "fabric lanes cannot stop the kernel; drive the TokenFabric")
