"""Spans recorded from outside: a tracer, call wrappers, self-time arithmetic.

The program under test is not edited.  A :class:`Tracer` replaces a
layer's entry point (a class attribute or a module-bound name) with a
wrapper that records one span per call and then calls the original.  Two
kinds of span share one list:

- **cpu** spans — a synchronous call, or one uninterrupted *step* of a
  coroutine between two awaits.  They never cross an ``await``, so one
  stack gives every span its parent, and ``self = duration - children``
  is time the interpreter spent in that layer and nowhere deeper.
- **wall** spans — a whole awaited call (request in, reply out).  They
  overlap freely; parents come from the task context, and the client
  ``req_id`` they carry ties a server-side span to the client call that
  caused it in another process.

Spans stay in memory as ``[name, start, end, parent, req_id, wall]``
lists (``parent`` is an index into the same list, -1 for a root) and are
reduced by :func:`self_times` after the run.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "covered", "in_window", "peak_rss_kb"]

NAME, START, END, PARENT, REQ, WALL = range(6)

Span = List[Any]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._req: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_req", default=None)
        self._wall: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_wall", default=-1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        """Bump a plain counter (work done, counted where it happens)."""
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _open(self, name: str) -> Span:
        stack = self._stack
        rec: Span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                     self._req.get(), False]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        return rec

    def _close(self, rec: Span) -> None:
        rec[END] = self.clock()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if attr in getattr(owner, "__dict__", {})
                           else None))
        setattr(owner, attr, wrapper)

    def wrap_sync(self, owner: Any, attr: str, name: str,
                  on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Record one cpu span per call of ``owner.attr`` (a function bound
        in a module, or a method looked up through a class)."""
        fn = getattr(owner, attr)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = opener(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(rec)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, wrapper)

    def wrap_async(self, owner: Any, attr: str, name: str,
                   req_of: Optional[Callable[..., Any]] = None,
                   req_from_result: Optional[Callable[[Any], Any]] = None,
                   wall: bool = True) -> None:
        """Record the steps of coroutine function ``owner.attr`` as cpu
        spans and (when ``wall``) the whole await as one wall span.
        ``req_of(*args)`` names the request the call serves; nested calls
        in the same task inherit it.  ``req_from_result`` reads it off the
        reply instead, for callers that only learn it on completion."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            req_token = None
            if req_of is not None:
                req_token = tracer._req.set(req_of(*args, **kwargs))
            rec: Optional[Span] = None
            wall_token = None
            if wall:
                rec = [name, tracer.clock(), 0.0, tracer._wall.get(),
                       tracer._req.get(), True]
                wall_token = tracer._wall.set(len(tracer.spans))
                tracer.spans.append(rec)
            try:
                result = await _Steps(fn(*args, **kwargs), tracer, name)
                if rec is not None and req_from_result is not None:
                    rec[REQ] = req_from_result(result)
                return result
            finally:
                if rec is not None:
                    rec[END] = tracer.clock()
                    tracer._wall.reset(wall_token)
                if req_token is not None:
                    tracer._req.reset(req_token)

        self._replace(owner, attr, wrapper)

    def wrap_core(self, protocol: str) -> None:
        """The entry points both children share: the protocol core's four
        handlers and the sanitizer's per-event check."""
        from repro.core.cluster import _registry
        from repro.lint.sanitizer import ClusterSanitizer

        core = _registry()[protocol]
        for handler in ("on_request", "on_release", "on_message", "on_timer"):
            self.wrap_sync(core, handler, f"core.{handler}")
        self.wrap_sync(ClusterSanitizer, "after_apply", "lint.sanitizer.check")

    def unwrap_all(self) -> None:
        """Put every replaced attribute back (tests)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, rec in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT],
                    "req_id": rec[REQ], "wall": rec[WALL]}) + "\n")


class _Steps:
    """Awaitable that drives a coroutine and times each of its steps —
    the stretches between awaits, which is when it holds the loop."""

    __slots__ = ("_coro", "_tracer", "_name")

    def __init__(self, coro: Any, tracer: Tracer, name: str) -> None:
        self._coro = coro
        self._tracer = tracer
        self._name = name

    def __await__(self):  # type: ignore[no-untyped-def]
        coro, tracer, name = self._coro, self._tracer, self._name
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            rec = tracer._open(name)
            try:
                if thrown is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer._close(rec)
            try:
                value, thrown = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, thrown = None, exc


# -- the one count a child takes of itself -----------------------------------


def peak_rss_kb() -> int:
    """This process's own peak resident set (``VmHWM``).  Not
    ``ru_maxrss``: Linux carries the spawning process's high-water mark
    across ``exec``, so a child smaller than the harness would report
    the harness."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


# -- arithmetic on finished spans -------------------------------------------


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (each clipped to it): overlapping children are not counted twice."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def in_window(spans: Sequence[Span], start: float, end: float) -> List[bool]:
    """Per span: did it start inside the timed window and finish?"""
    return [start <= rec[START] < end and rec[END] >= rec[START]
            and rec[END] > 0.0 for rec in spans]


def self_times(spans: Sequence[Span],
               keep: Optional[Sequence[bool]] = None,
               ) -> Dict[Tuple[str, bool], Dict[str, float]]:
    """Reduce spans to ``{(name, wall): {calls, total, self}}``.

    A span's self time is its duration minus the part of it its children
    cover; children are the spans of the same kind that name it as
    parent.  ``keep`` masks spans out of the result (warm-up), but a
    masked child still shields its parent."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for rec in spans:
        parent = rec[PARENT]
        if parent >= 0 and spans[parent][WALL] == rec[WALL]:
            children.setdefault(parent, []).append((rec[START], rec[END]))
    out: Dict[Tuple[str, bool], Dict[str, float]] = {}
    for index, rec in enumerate(spans):
        if keep is not None and not keep[index]:
            continue
        duration = rec[END] - rec[START]
        kids = children.get(index)
        own = duration - (covered(rec[START], rec[END], kids) if kids else 0.0)
        row = out.setdefault((rec[NAME], rec[WALL]),
                             {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += duration
        row["self"] += own
    return out
