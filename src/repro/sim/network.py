"""The network substrate, on either clock.

A complete graph of nodes exchanging point-to-point messages with a
pluggable delay model.  The paper distinguishes two message classes
(Section 1): **expensive** messages (the token) whose delivery correctness
depends on, and **cheap** messages (search hints, traps, probes) that only
affect performance.  The network honours that split: loss and duplication
injection apply *only* to messages whose ``reliable`` attribute is false —
tests use this to demonstrate that safety never depends on cheap messages.

One :class:`Network` serves the discrete-event simulation and the asyncio
runtime: its clock is a :class:`~repro.sim.kernel.Simulator` or an event
loop, anything with ``time()`` and ``call_later(delay, fn, *args)``.
The socket transport (:class:`repro.wire.transport.WireTransport`)
subclasses it and moves only the data path onto real connections.

Observability hooks (all synchronous, fired in registration order):

- ``on_send(src, dst, msg)`` — every send attempt, **including** ones that
  are subsequently dropped (so counters see the true offered load);
- ``on_deliver(src, dst, msg)`` — a message about to reach a live node's
  handler;
- ``on_drop(src, dst, msg, reason)`` — a message that will never arrive;
  reasons: ``"loss"``, ``"partition"``, ``"down"``, ``"detached"``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import NetworkError

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "Network",
]


class DelayModel:
    """Base delay model: per-message latency in virtual time units."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Draw the latency for one ``src`` → ``dst`` message."""
        raise NotImplementedError


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` units — the paper's
    constant-cost model, and the default for all experiments."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise NetworkError(f"delay must be positive, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.delay


class UniformDelay(DelayModel):
    """Latency uniform in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 < low <= high:
            raise NetworkError(f"need 0 < low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return rng.uniform(self.low, self.high)


class ExponentialDelay(DelayModel):
    """Exponential latency with the given mean, floored at ``minimum``."""

    def __init__(self, mean: float, minimum: float = 0.01) -> None:
        if mean <= 0:
            raise NetworkError(f"mean must be positive, got {mean}")
        self.mean = mean
        self.minimum = minimum

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return max(self.minimum, rng.expovariate(1.0 / self.mean))


class Network:
    """Point-to-point messaging over a complete graph, with injectable faults.

    ``attach`` registers a delivery callback per node id.  ``send``
    schedules delivery on the clock after the delay; loss/duplication
    apply only to unreliable messages.  ``partition``/``heal`` block and
    unblock directed links, both directions unless told otherwise (a
    blocked link parks reliable messages and delivers them on heal — the
    paper assumes expensive messages eventually arrive — and drops cheap
    ones).

    ``delay`` is a :class:`DelayModel` or a fixed delay in the clock's
    units; the asyncio runtime passes seconds, where 0 delivers on the
    loop's next turn.  The default is one time unit.
    """

    def __init__(
        self,
        clock: Any,
        rng: Optional[random.Random] = None,
        delay: Union[DelayModel, float, None] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= dup_rate < 1.0:
            raise NetworkError(f"dup_rate must be in [0, 1), got {dup_rate}")
        if delay is None:
            delay = ConstantDelay(1.0)
        if isinstance(delay, DelayModel):
            fixed = delay.delay if type(delay) is ConstantDelay else None
        elif delay < 0:
            raise NetworkError(f"delay must be >= 0, got {delay}")
        else:
            fixed = delay
        self.clock = clock
        self.rng = rng if rng is not None else random.Random(0)
        #: As given: a :class:`DelayModel`, or the runtime's float seconds.
        self.delay: Any = delay
        #: The one delay every message takes, or None when the model
        #: samples each message's own.
        self._fixed: Optional[float] = fixed
        # Deliveries are never cancelled: use the clock's handle-free
        # post where it has one (the simulator does).
        self._post = getattr(clock, "post", clock.call_later)
        self.loss_rate = loss_rate
        self.dup_rate = dup_rate
        self._handlers: Dict[int, Callable[[int, object], None]] = {}
        self._blocked: Set[Tuple[int, int]] = set()     # directed (src, dst)
        self._parked: List[Tuple[int, int, object]] = []
        self._down: Set[int] = set()
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.on_send: List[Callable[[int, int, object], None]] = []
        self.on_deliver: List[Callable[[int, int, object], None]] = []
        self.on_drop: List[Callable[[int, int, object, str], None]] = []

    # -- membership ---------------------------------------------------------------

    def attach(self, node_id: int, handler: Callable[[int, object], None]) -> None:
        """Register ``handler(src, msg)`` as node ``node_id``'s inbox."""
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} already attached")
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Remove a node (its queued deliveries are discarded on arrival)."""
        self._handlers.pop(node_id, None)

    # -- fault injection ----------------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Mark a node as crashed: everything sent to it disappears."""
        self._down.add(node_id)

    def recover(self, node_id: int) -> None:
        """Clear a node's crashed flag."""
        self._down.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        """True when the node is marked crashed."""
        return node_id in self._down

    def partition(self, a: int, b: int, symmetric: bool = True) -> None:
        """Block the ``a -> b`` link (both directions when ``symmetric``)."""
        self._blocked.add((a, b))
        if symmetric:
            self._blocked.add((b, a))

    def split(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        """Partition every link between two node groups (symmetric)."""
        for a in group_a:
            for b in group_b:
                self.partition(a, b)

    def heal(self, a: int, b: int, symmetric: bool = True) -> None:
        """Unblock ``a -> b`` (both directions when ``symmetric``) and
        flush the reliable messages parked on what opened."""
        self._blocked.discard((a, b))
        if symmetric:
            self._blocked.discard((b, a))
        self._flush_parked()

    def heal_all(self) -> None:
        """Remove every partition and flush every parked message."""
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

    # -- data path ----------------------------------------------------------------

    def send(self, src: int, dst: int, msg: object) -> None:
        """Send ``msg`` from ``src`` to ``dst`` (self-sends are allowed and
        still incur one delay — a message is a message)."""
        if src not in self._handlers and src not in self._down:
            raise NetworkError(f"unknown sender {src}")
        self.sent_count += 1
        for hook in self.on_send:
            hook(src, dst, msg)
        if not (self._blocked or self.loss_rate or self.dup_rate):
            # Nothing can drop, park or copy this message, whatever its
            # class: under a fixed delay, post its delivery right here.
            fixed = self._fixed
            if fixed is not None:
                self._post(fixed, self._deliver, src, dst, msg)
                return
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
        """Deliver one message that passed the faults, after its delay."""
        fixed = self._fixed
        self._post(fixed if fixed is not None
                   else self.delay.sample(self.rng, src, dst),
                   self._deliver, src, dst, msg)

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
