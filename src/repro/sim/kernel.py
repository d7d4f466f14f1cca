"""Deterministic discrete-event simulation kernel.

The paper's performance model (Section 4) charges **zero time for rules
affecting only local state and a constant time for message-passing rules**.
The kernel realises that model: local handling runs synchronously at the
current virtual time, message deliveries are events scheduled one delay
ahead.  Event ordering is a ``(time, seq)`` heap — ``seq`` makes runs
bit-for-bit reproducible for a given seed.

Hot-path layout: the heap stores plain ``(time, seq, fn, args)`` tuples
so ordering is decided by C-level tuple comparison (``seq`` is unique, so
``fn``/``args`` never get compared).  Cancellation goes through
an :class:`Event` handle registered in a side table keyed by ``seq``;
cancelled entries stay in the heap (lazy deletion) until they are popped
or until dead entries outnumber live ones, at which point the heap is
compacted in one O(n) pass.  :meth:`Simulator.post` is the fire-and-forget
fast path (no handle) used for the overwhelmingly-common never-cancelled
events such as message deliveries.

The simulator is a clock the way an asyncio event loop is one:
:meth:`Simulator.time` and :meth:`Simulator.call_later` are its names for
:attr:`~Simulator.now` and :meth:`~Simulator.schedule`, so the one network
and the one node driver run on either.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]

#: Heap entry: (time, seq, fn, args).
_Entry = Tuple[float, int, Callable, Tuple]


class Event:
    """Cancellation handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; the heap itself stores plain
    tuples, so this object exists only so the caller can :meth:`cancel`.
    """

    __slots__ = ("_sim", "seq", "time", "cancelled")

    def __init__(self, sim: "Simulator", seq: int, time: float) -> None:
        self._sim = sim
        self.seq = seq
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; a no-op after it
        has already fired)."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._on_cancel(self.seq)


class Simulator:
    """A single-threaded virtual-time event loop."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[_Entry] = []
        # seq -> Event for handle-bearing entries still in the heap.
        self._handles: dict = {}
        self._dead = 0  # cancelled entries still in the heap
        self._running = False
        self._stopped = False
        self.executed_total = 0  # lifetime events fired (for benchmarks)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def time(self) -> float:
        """Current virtual time (:attr:`now`, as an event loop names it)."""
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return len(self._queue) - self._dead

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        The fast path for fire-and-forget events (message deliveries,
        workload ticks): no :class:`Event` object, no side-table entry.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._now + delay, self._seq, fn, args)
        )
        self._seq += 1

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Same-time events run in scheduling order.  Returns a cancellation
        handle; use :meth:`post` when you will never cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, fn, args))
        handle = Event(self, seq, time)
        self._handles[seq] = handle
        return handle

    #: :meth:`schedule`, as an event loop names it.
    call_later = schedule

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, fn, *args)

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    # -- cancellation bookkeeping -------------------------------------------------

    def _on_cancel(self, seq: int) -> None:
        """Called by :meth:`Event.cancel`; counts the dead entry and
        compacts the heap when dead entries outnumber live ones."""
        if seq in self._handles:  # still queued (not yet fired)
            self._dead += 1
            if self._dead * 2 > len(self._queue):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (one O(n) pass).

        Mutates ``self._queue`` in place: the run loop holds a direct
        reference to the list, and cancellation can happen mid-run.
        """
        handles = self._handles
        keep: List[_Entry] = []
        for entry in self._queue:
            handle = handles.get(entry[1])
            if handle is not None and handle.cancelled:
                del handles[entry[1]]
            else:
                keep.append(entry)
        self._queue[:] = keep
        heapq.heapify(self._queue)
        self._dead = 0

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events in order; return the number of events executed.

        Stops when the queue is empty, when virtual time would exceed
        ``until`` (the clock is then advanced exactly to ``until``), after
        ``max_events``, or when :meth:`stop` is called from a handler.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        # Hot loop: bind everything once.
        queue = self._queue
        handles = self._handles
        heappop = heapq.heappop
        try:
            while queue:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if until is not None and queue[0][0] > until:
                    # Peek, don't pop: the head stays queued for later runs.
                    self._now = until
                    break
                entry = heappop(queue)
                time = entry[0]
                if handles:
                    handle = handles.pop(entry[1], None)
                    if handle is not None and handle.cancelled:
                        self._dead -= 1
                        continue
                if time < self._now:
                    raise SimulationError(
                        f"event at t={time} is in the past (now={self._now})"
                    )
                self._now = time
                entry[2](*entry[3])
                executed += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self.executed_total += executed
        return executed
