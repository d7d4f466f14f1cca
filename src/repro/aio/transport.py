"""In-memory asyncio transport with fault injection.

The real-time twin of :class:`repro.sim.network.Network`: point-to-point
messages between coroutine-driven nodes, with a configurable (real-time)
delay and the same fault surface the discrete-event network exposes —
cheap-message loss and duplication, crashed destinations, and (new for the
fault-tolerant runtime) **directed link partitions**: a blocked link drops
cheap messages and *parks* expensive ones, flushing them when the link
heals, exactly like the simulator.  Every node attaches a delivery
handler, as on :meth:`repro.sim.network.Network.attach`; ``send``
schedules the call after the delay on the running event loop.

Observability hooks (all synchronous, fired in registration order):

- ``on_send(src, dst, msg)`` — every send attempt, **including** ones that
  are subsequently dropped (so counters see the true offered load);
- ``on_deliver(src, dst, msg)`` — a message about to reach a live node's
  handler;
- ``on_drop(src, dst, msg, reason)`` — a message that will never arrive;
  reasons: ``"loss"``, ``"partition"``, ``"down"``, ``"detached"``.
"""

from __future__ import annotations

import asyncio
import functools
import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError

__all__ = ["AioTransport"]

#: ``handler(src, msg)`` — how a node receives a delivered message.
Handler = Callable[[int, object], None]


def _enqueue(queue: asyncio.Queue, src: int, msg: object) -> None:
    queue.put_nowait((src, msg))


class AioTransport:
    """Asyncio message bus for protocol nodes, with injectable faults."""

    def __init__(
        self,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if delay < 0:
            raise NetworkError(f"delay must be >= 0, got {delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= dup_rate < 1.0:
            raise NetworkError(f"dup_rate must be in [0, 1), got {dup_rate}")
        self.delay = delay
        self.loss_rate = loss_rate
        self.dup_rate = dup_rate
        self.rng = rng if rng is not None else random.Random(0)
        self._handlers: Dict[int, Handler] = {}
        self._down: Set[int] = set()
        self._blocked: Set[Tuple[int, int]] = set()     # directed (src, dst)
        self._parked: List[Tuple[int, int, object]] = []
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.on_send: List[Callable[[int, int, object], None]] = []
        self.on_deliver: List[Callable[[int, int, object], None]] = []
        self.on_drop: List[Callable[[int, int, object, str], None]] = []

    # -- membership of the bus ----------------------------------------------------

    def attach(self, node_id: int, handler: Optional[Handler] = None,
               ) -> Optional[asyncio.Queue]:
        """Register ``handler(src, msg)`` as ``node_id``'s delivery callback.

        Without a handler the node gets an inbox queue, returned here,
        whose ``put`` is the handler: every delivery lands in it as a
        ``(src, msg)`` pair."""
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} already attached")
        queue: Optional[asyncio.Queue] = None
        if handler is None:
            queue = asyncio.Queue()
            handler = functools.partial(_enqueue, queue)
        self._handlers[node_id] = handler
        return queue

    def detach(self, node_id: int) -> None:
        """Remove a node's handler; in-flight messages to it are dropped."""
        self._handlers.pop(node_id, None)

    # -- fault injection -----------------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Mark a node as crashed: everything sent to it disappears."""
        self._down.add(node_id)

    def recover(self, node_id: int) -> None:
        """Clear a node's crashed flag."""
        self._down.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        """True while the node is marked crashed."""
        return node_id in self._down

    def partition(self, a: int, b: int, symmetric: bool = True) -> None:
        """Block the ``a -> b`` link (both directions when ``symmetric``).

        Blocked links drop cheap messages and park expensive ones until
        :meth:`heal` — the asyncio analogue of the simulator's partition
        semantics."""
        self._blocked.add((a, b))
        if symmetric:
            self._blocked.add((b, a))

    def split(self, group_a, group_b) -> None:
        """Partition every link between two node groups (symmetric)."""
        for a in group_a:
            for b in group_b:
                self.partition(a, b)

    def heal(self, a: int, b: int, symmetric: bool = True) -> None:
        """Unblock ``a -> b`` (both directions when ``symmetric``) and
        flush any parked expensive messages over the healed link(s)."""
        self._blocked.discard((a, b))
        if symmetric:
            self._blocked.discard((b, a))
        self._flush_parked()

    def heal_all(self) -> None:
        """Remove every partition and flush all parked messages."""
        self._blocked.clear()
        self._flush_parked()

    def partitioned(self, a: int, b: int) -> bool:
        """True when the directed ``a -> b`` link is currently blocked."""
        return (a, b) in self._blocked

    def _flush_parked(self) -> None:
        parked, self._parked = self._parked, []
        for src, dst, msg in parked:
            if (src, dst) in self._blocked:
                self._parked.append((src, dst, msg))
            else:
                self._schedule(src, dst, msg)

    # -- data path -----------------------------------------------------------------

    def send(self, src: int, dst: int, msg: object) -> None:
        """Deliver ``msg`` to ``dst`` after the transport delay (subject to
        loss, duplication, partitions, and crashed destinations)."""
        self.sent_count += 1
        for hook in self.on_send:
            hook(src, dst, msg)
        reliable = bool(getattr(msg, "reliable", True))
        if (src, dst) in self._blocked:
            if reliable:
                self._parked.append((src, dst, msg))
            else:
                self._drop(src, dst, msg, "partition")
            return
        if not reliable:
            if self.loss_rate and self.rng.random() < self.loss_rate:
                self._drop(src, dst, msg, "loss")
                return
            if self.dup_rate and self.rng.random() < self.dup_rate:
                self._schedule(src, dst, msg)
        self._schedule(src, dst, msg)

    def _schedule(self, src: int, dst: int, msg: object) -> None:
        loop = asyncio.get_running_loop()
        loop.call_later(self.delay, self._deliver, src, dst, msg)

    def _deliver(self, src: int, dst: int, msg: object) -> None:
        if dst in self._down:
            self._drop(src, dst, msg, "down")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._drop(src, dst, msg, "detached")
            return
        self.delivered_count += 1
        for hook in self.on_deliver:
            hook(src, dst, msg)
        handler(src, msg)

    def _drop(self, src: int, dst: int, msg: object, reason: str) -> None:
        self.dropped_count += 1
        for hook in self.on_drop:
            hook(src, dst, msg, reason)
