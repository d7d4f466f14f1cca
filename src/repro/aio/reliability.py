"""Reliable delivery over the lossy asyncio transport.

The protocol model splits messages into *expensive* ones the network must
never lose (token, loans, regeneration) and *cheap* ones that may vanish
(searches, probes, heartbeats).  The discrete-event simulator simply
exempts expensive messages from loss; a real network offers no such
favour.  :class:`ReliableChannel` closes the gap: it is the per-node
reliability sublayer that makes the expensive class actually reliable over
an unreliable link.

Mechanics (classic ARQ, kept deterministic for virtual-time replay):

- every expensive payload rides a :class:`DataFrame` carrying a **per-link
  sequence number** and the sender's **incarnation** (bumped each time a
  supervised node restarts, so a reborn receiver never confuses old and
  new streams);
- frames themselves are *cheap* on the wire — droppable, duplicable — the
  channel supplies the reliability end-to-end;
- the receiver acks every data frame (including re-seen ones) and
  **dedups** by ``(sender, incarnation, seq)`` with a compacted watermark,
  so the protocol core sees each payload at most once per incarnation;
- the sender retransmits unacked frames on a timeout with **exponential
  backoff plus seeded jitter**, up to a **bounded retry budget**; a frame
  that exhausts its budget is surrendered via ``on_give_up`` (the token it
  may carry is then genuinely lost — which is precisely the failure the
  census/regeneration machinery exists to repair);
- cheap payloads bypass the channel entirely (the protocols tolerate
  their loss by design, and framing them would only add traffic).

All accounting lands in a :class:`~repro.metrics.counters.ReliabilityCounters`.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.metrics.counters import ReliabilityCounters
from repro.sim.network import Network

__all__ = ["DataFrame", "AckFrame", "ReliabilityConfig", "ReliableChannel"]


@dataclass(frozen=True)
class DataFrame:
    """Wire envelope for one expensive payload (cheap on the wire)."""

    seq: int
    incarnation: int
    payload: object

    reliable = False


@dataclass(frozen=True)
class AckFrame:
    """Receiver's acknowledgement of one :class:`DataFrame` (cheap)."""

    seq: int
    incarnation: int

    reliable = False


@dataclass
class ReliabilityConfig:
    """Retransmission policy.

    ``rto`` of 0 means "derive from the transport delay" (four one-way
    delays: request + ack plus slack).  ``max_retries`` bounds the budget:
    a frame is surrendered after that many retransmissions.
    """

    rto: float = 0.0
    backoff: float = 2.0
    max_rto: float = 1.0
    jitter: float = 0.25
    max_retries: int = 10

    def resolved_rto(self, transport_delay: float) -> float:
        if self.rto > 0:
            return self.rto
        return max(4.0 * transport_delay, 1e-4)


class ReliableChannel:
    """Per-node ARQ sublayer between a protocol driver and the transport."""

    def __init__(
        self,
        node_id: int,
        transport: Network,
        incarnation: int = 0,
        config: Optional[ReliabilityConfig] = None,
        rng: Optional[random.Random] = None,
        counters: Optional[ReliabilityCounters] = None,
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.incarnation = incarnation
        self.config = config if config is not None else ReliabilityConfig()
        self.rng = rng if rng is not None else random.Random(node_id)
        self.counters = counters if counters is not None else ReliabilityCounters()
        #: ``hook(src, dst, payload)`` for frames whose retry budget ran out.
        self.on_give_up: List[Callable[[int, int, object], None]] = []
        self._next_seq: Dict[int, int] = {}                # dst -> next seq
        self._unacked: Dict[Tuple[int, int], _Pending] = {}  # (dst, seq)
        # Receive side, per sender: (incarnation, watermark, out-of-order set).
        self._seen: Dict[int, Tuple[int, int, Set[int]]] = {}
        self._stopped = False

    # -- send side ---------------------------------------------------------------

    def send(self, dst: int, msg: object) -> None:
        """Send ``msg`` to ``dst``: framed + retransmitted when expensive,
        raw fire-and-forget when cheap."""
        if not getattr(msg, "reliable", True):
            self.transport.send(self.node_id, dst, msg)
            return
        seq = self._next_seq.get(dst, 0) + 1
        self._next_seq[dst] = seq
        frame = DataFrame(seq=seq, incarnation=self.incarnation, payload=msg)
        pending = _Pending(dst, frame)
        self._unacked[(dst, seq)] = pending
        self.counters.data_frames += 1
        self.transport.send(self.node_id, dst, frame)
        self._arm(pending)

    def _arm(self, pending: "_Pending") -> None:
        cfg = self.config
        base = cfg.resolved_rto(self.transport.delay)
        delay = min(base * (cfg.backoff ** pending.attempts), cfg.max_rto)
        delay *= 1.0 + cfg.jitter * self.rng.random()
        loop = asyncio.get_running_loop()
        pending.timer = loop.call_later(
            delay, self._on_timeout, pending.dst, pending.frame.seq
        )

    def _on_timeout(self, dst: int, seq: int) -> None:
        pending = self._unacked.get((dst, seq))
        if pending is None or self._stopped:
            return
        if pending.attempts >= self.config.max_retries:
            del self._unacked[(dst, seq)]
            self.counters.give_ups += 1
            for hook in self.on_give_up:
                hook(self.node_id, dst, pending.frame.payload)
            return
        pending.attempts += 1
        self.counters.retransmits += 1
        self.transport.send(self.node_id, dst, pending.frame)
        self._arm(pending)

    # -- receive side ------------------------------------------------------------

    def on_frame(self, src: int, frame: object) -> Optional[object]:
        """Handle an inbound frame.  Returns the payload to hand to the
        protocol core, or None when the frame was an ack or a duplicate."""
        if isinstance(frame, AckFrame):
            pending = self._unacked.pop((src, frame.seq), None)
            if pending is not None and pending.timer is not None:
                pending.timer.cancel()
            return None
        if not isinstance(frame, DataFrame):
            return frame  # not channel traffic; pass through untouched
        # Always (re-)ack: the original ack may have been lost.
        self.counters.acks += 1
        self.transport.send(
            self.node_id, src, AckFrame(seq=frame.seq,
                                        incarnation=frame.incarnation))
        inc, low, seen = self._seen.get(src, (frame.incarnation, 0, set()))
        if inc != frame.incarnation:
            # The sender restarted: its sequence space starts over.
            inc, low, seen = frame.incarnation, 0, set()
        if frame.seq <= low or frame.seq in seen:
            self.counters.dedup_drops += 1
            self._seen[src] = (inc, low, seen)
            return None
        seen.add(frame.seq)
        while low + 1 in seen:
            low += 1
            seen.discard(low)
        self._seen[src] = (inc, low, seen)
        return frame.payload

    # -- durable receive state ---------------------------------------------------

    def export_recv_state(self) -> Dict[int, Tuple[int, int, Set[int]]]:
        """The per-sender dedup state (incarnation, watermark, out-of-order
        set).  This is **durable** across a node restart: in a real
        deployment the watermark is advanced synchronously with accepting
        a frame (one integer per peer — a trivial WAL).  Without it, a
        retransmission of a frame the node accepted *and acted on* before
        crashing would be re-accepted by the reborn node — resurrecting,
        e.g., an already-forwarded token at its original epoch, which no
        epoch fence could retire."""
        return {src: (inc, low, set(seen))
                for src, (inc, low, seen) in self._seen.items()}

    def restore_recv_state(
            self, state: Dict[int, Tuple[int, int, Set[int]]]) -> None:
        """Adopt a previous incarnation's dedup state (see
        :meth:`export_recv_state`)."""
        for src, (inc, low, seen) in state.items():
            self._seen[src] = (inc, low, set(seen))

    # -- lifecycle ---------------------------------------------------------------

    def stop(self) -> None:
        """Cancel every retransmission timer (the node is going down)."""
        self._stopped = True
        for pending in self._unacked.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._unacked.clear()

    @property
    def inflight(self) -> int:
        """Frames sent but not yet acknowledged."""
        return len(self._unacked)


class _Pending:
    """One unacknowledged frame and its retransmission state."""

    __slots__ = ("dst", "frame", "attempts", "timer")

    def __init__(self, dst: int, frame: DataFrame) -> None:
        self.dst = dst
        self.frame = frame
        self.attempts = 0
        self.timer = None
