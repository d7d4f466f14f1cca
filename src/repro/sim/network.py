"""Simulated network substrate.

A complete graph of nodes exchanging point-to-point messages with a
pluggable delay model.  The paper distinguishes two message classes
(Section 1): **expensive** messages (the token) whose delivery correctness
depends on, and **cheap** messages (search hints, traps, probes) that only
affect performance.  The network honours that split: loss and duplication
injection apply *only* to messages whose ``reliable`` attribute is false —
tests use this to demonstrate that safety never depends on cheap messages.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.sim.kernel import Simulator

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
    """Point-to-point messaging over a complete graph.

    ``attach`` registers a delivery callback per node id.  ``send``
    schedules delivery after a sampled delay; loss/duplication apply only
    to unreliable messages.  ``partition``/``heal`` block node pairs
    symmetrically (blocked reliable messages are queued and delivered on
    heal — the paper assumes expensive messages eventually arrive; blocked
    cheap messages are dropped).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        delay: Optional[DelayModel] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= dup_rate < 1.0:
            raise NetworkError(f"dup_rate must be in [0, 1), got {dup_rate}")
        self.sim = sim
        self.rng = rng
        self.delay = delay if delay is not None else ConstantDelay(1.0)
        self.loss_rate = loss_rate
        self.dup_rate = dup_rate
        self._handlers: Dict[int, Callable[[int, object], None]] = {}
        self._blocked: Set[Tuple[int, int]] = set()
        self._parked: List[Tuple[int, int, object]] = []
        self._down: Set[int] = set()
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.on_send: List[Callable[[int, int, object], None]] = []

    def attach(self, node_id: int, handler: Callable[[int, object], None]) -> None:
        """Register ``handler(src, msg)`` as node ``node_id``'s inbox."""
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} already attached")
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Remove a node (its queued deliveries are discarded on arrival)."""
        self._handlers.pop(node_id, None)

    def crash(self, node_id: int) -> None:
        """Mark a node as crashed: everything sent to it disappears."""
        self._down.add(node_id)

    def recover(self, node_id: int) -> None:
        """Clear a node's crashed flag."""
        self._down.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        """True when the node is marked crashed."""
        return node_id in self._down

    def partition(self, a: int, b: int) -> None:
        """Block the (a, b) link in both directions."""
        self._blocked.add((min(a, b), max(a, b)))

    def heal(self, a: int, b: int) -> None:
        """Unblock the (a, b) link and flush parked reliable messages."""
        self._blocked.discard((min(a, b), max(a, b)))
        flush = [(s, d, m) for (s, d, m) in self._parked
                 if {s, d} == {a, b}]
        self._parked = [p for p in self._parked if p not in flush]
        for src, dst, msg in flush:
            self._schedule_delivery(src, dst, msg)

    def _is_blocked(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._blocked

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
            # class: under constant delay, post its delivery right here.
            delay = self.delay
            if type(delay) is ConstantDelay:
                self.sim.post(delay.delay, self._deliver, src, dst, msg)
                return
        reliable = bool(getattr(msg, "reliable", True))
        if self._blocked and self._is_blocked(src, dst):
            if reliable:
                self._parked.append((src, dst, msg))
            else:
                self.dropped_count += 1
            return
        if not reliable:
            if self.loss_rate and self.rng.random() < self.loss_rate:
                self.dropped_count += 1
                return
            if self.dup_rate and self.rng.random() < self.dup_rate:
                self._schedule_delivery(src, dst, msg)
        self._schedule_delivery(src, dst, msg)

    def _schedule_delivery(self, src: int, dst: int, msg: object) -> None:
        # Deliveries are never cancelled: use the kernel's handle-free fast
        # path.
        self.sim.post(self.delay.sample(self.rng, src, dst), self._deliver,
                      src, dst, msg)

    def _deliver(self, src: int, dst: int, msg: object) -> None:
        if dst in self._down:
            self.dropped_count += 1
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped_count += 1
            return
        self.delivered_count += 1
        handler(src, msg)
