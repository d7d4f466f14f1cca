"""Deterministic virtual time for the asyncio runtime.

Chaos schedules must be **bit-exact reproducible from their seed** — the
same guarantee the discrete-event simulator gives ``repro run``.  Real
wall-clock asyncio cannot provide that: timer firing order depends on OS
scheduling jitter.  :class:`VirtualClock` removes the wall clock from the
picture: it patches a selector event loop so that

- ``loop.time()`` reads a virtual clock instead of the monotonic clock;
- whenever the loop would *block* waiting for the next timer, the virtual
  clock instead jumps forward to that timer instantly.

Because the runtime's transports are purely in-memory (no sockets), the
loop's behaviour is then a deterministic function of the scheduled
callbacks alone: the ready queue is FIFO, the timer heap breaks ties by
insertion order, and no real I/O ever preempts either.  A chaos run under
``run_virtual`` executes identically on every machine, at full CPU speed
(a 10-virtual-second schedule takes milliseconds of wall time).

A genuine deadlock — every task blocked on a queue with no timer armed —
would make a real loop hang forever; the virtual loop raises
:class:`VirtualTimeDeadlock` instead, turning liveness bugs into failures.

:data:`RUNNING_LOOP` is the runtime's clock for the one network and node
driver: whichever loop is running, virtual or real.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, TypeVar

from repro.errors import SimulationError

__all__ = ["RUNNING_LOOP", "RunningLoop", "VirtualClock", "VirtualTimeDeadlock",
           "run_virtual"]

T = TypeVar("T")


class VirtualTimeDeadlock(SimulationError):
    """The virtual loop went idle with nothing scheduled: every coroutine
    is blocked on an event that can never fire."""


class VirtualClock:
    """A monotonically advancing virtual clock patched into an event loop."""

    def __init__(self) -> None:
        self.virtual_time = 0.0
        self._patched = False

    def time(self) -> float:
        """Current virtual time (seconds since the loop was patched)."""
        return self.virtual_time

    def patch_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Route ``loop.time()`` and the selector's blocking wait through
        the virtual clock.  Only selector-based loops are supported (the
        default on every platform this project targets)."""
        if self._patched:
            raise SimulationError("VirtualClock is already patched into a loop")
        selector = getattr(loop, "_selector", None)
        if selector is None:
            raise SimulationError(
                f"cannot virtualize {type(loop).__name__}: no ._selector"
            )
        self._patched = True
        real_select = selector.select

        def virtual_select(timeout=None):
            if timeout is None:
                # asyncio passes None only when there is no ready callback
                # and no armed timer: a real loop would block forever.
                raise VirtualTimeDeadlock(
                    "virtual event loop is idle with no timer armed: "
                    "all coroutines are blocked on events that cannot fire"
                )
            if timeout > 0:
                # Jump to the next timer instead of sleeping; poll real
                # I/O (the loop's self-pipe) without blocking.
                self.virtual_time += timeout
            return real_select(0)

        selector.select = virtual_select
        loop.time = self.time  # type: ignore[method-assign]


class RunningLoop:
    """The running event loop as a clock: ``time()`` and ``call_later``
    look the loop up at each call, so a cluster or a transport can be
    built before its loop runs."""

    __slots__ = ()

    def time(self) -> float:
        return asyncio.get_running_loop().time()

    def call_later(self, delay: float, fn: Callable[..., object],
                   *args: Any) -> asyncio.TimerHandle:
        return asyncio.get_running_loop().call_later(delay, fn, *args)


RUNNING_LOOP = RunningLoop()


def run_virtual(coro: Awaitable[T]) -> T:
    """``asyncio.run`` on a fresh virtual-time loop.

    The coroutine (and everything it spawns) executes under virtual time:
    ``loop.time()``, ``call_later`` and ``asyncio.sleep`` all follow the
    virtual clock, which advances instantly to the next scheduled event.
    """
    loop = asyncio.new_event_loop()
    clock = VirtualClock()
    clock.patch_loop(loop)
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            _cancel_pending(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


def _cancel_pending(loop: asyncio.AbstractEventLoop) -> None:
    """Cancel tasks that outlived the main coroutine (stray consumers)."""
    pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(
        asyncio.gather(*pending, return_exceptions=True)
    )
