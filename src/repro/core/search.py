"""System Search with the Lemma 5 ring restriction, executable.

The *linear*-search ancestor of the binary-search protocol: a ready node
sends an ``ask`` to its ring successor; each node lays a trap and forwards
the ask to *its* successor, so the request traverses the ring node by
node.  A holder with a trap sends the token **directly** to the trapped
requester (the paper's rule 7 sends the token itself, not a loan), and
rotation resumes from the requester's position.

Responsiveness is O(N) (Lemma 5) — the same bound as the plain ring but
with extra search traffic; it exists here as the stepping-stone baseline
between :class:`~repro.core.ring.RingCore` and
:class:`~repro.core.BinarySearchCore`, and the benchmarks
show why the binary refinement is the one that matters.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.core.base import ProtocolCore
from repro.core.config import GC_ROTATION, ProtocolConfig
from repro.core.effects import CancelTimer, Deliver, Effect, Send, SetTimer
from repro.core.messages import AskMsg, TokenMsg
from repro.core.traps import TrapStore
from repro.errors import ProtocolError

__all__ = ["LinearSearchCore"]

_FWD = "forward"
_REL = "release"


class LinearSearchCore(ProtocolCore):
    """Per-node state machine of the ring-restricted System Search."""

    protocol_name = "linear_search"

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config)
        self.has_token = node_id == initial_holder
        self.clock = 0
        self.round_no = 0
        self.last_visit = 0 if self.has_token else -1
        self.ready = False
        self.req_seq = 0
        self.granted_seq = -1
        self.outstanding = False
        self.traps = TrapStore()
        self._parked = False
        self._serving = False
        self._demand_seen = False

    # -- application interface ---------------------------------------------------

    def on_request(self, now: float) -> List[Effect]:
        self.ready = True
        self.req_seq += 1
        self._demand_seen = True
        if self.has_token and not self._serving:
            effects: List[Effect] = []
            if self._parked:
                self._parked = False
                effects.append(CancelTimer(_FWD))
            effects.extend(self._advance(now))
            return effects
        if self.ring_size() <= 1 or (
                self.outstanding and self.config.single_outstanding):
            return []
        self.outstanding = True
        return [Send(self.ring_succ(), AskMsg(
            requester=self.node_id, req_seq=self.req_seq,
            visit_stamp=self.last_visit,
        ))]

    def on_release(self, now: float) -> List[Effect]:
        if not self._serving:
            return []
        self._serving = False
        effects: List[Effect] = [
            Deliver("released", (self.node_id, self.granted_seq))
        ]
        effects.extend(self._advance(now))
        return effects

    # -- protocol ------------------------------------------------------------------

    def on_start(self, now: float) -> List[Effect]:
        if not self.has_token:
            return []
        return [Deliver("token_visit", (self.node_id, self.clock))] + \
            self._advance(now)

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        if isinstance(msg, TokenMsg):
            return self._on_token(msg, now)
        if isinstance(msg, AskMsg):
            return self._on_ask(msg, now)
        raise ProtocolError(
            f"linear-search node {self.node_id}: unexpected {msg!r}"
        )

    def on_timer(self, key: Hashable, now: float) -> List[Effect]:
        if key == _FWD:
            if not (self.has_token and self._parked):
                return []
            self._parked = False
            return self._forward()
        if key == _REL:
            return self.on_release(now)
        return []

    def _on_token(self, msg: TokenMsg, now: float) -> List[Effect]:
        if self.has_token:
            raise ProtocolError(f"node {self.node_id} received a second token")
        self.has_token = True
        self.clock = msg.clock
        self.round_no = msg.round_no
        self.last_visit = msg.clock
        if self.config.trap_gc == GC_ROTATION:
            self.traps.expire(self.clock, self.ring_size())
        effects: List[Effect] = [Deliver("token_visit", (self.node_id, self.clock))]
        effects.extend(self._advance(now))
        return effects

    def _on_ask(self, msg: AskMsg, now: float) -> List[Effect]:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return []  # our ask completed a full circuit
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp)
        if self.has_token or self._serving:
            effects: List[Effect] = []
            if self.has_token and not self._serving:
                if self._parked:
                    self._parked = False
                    effects.append(CancelTimer(_FWD))
                effects.extend(self._advance(now))
            return effects
        nxt = self.ring_succ()
        if nxt == msg.requester:
            return []  # the ask is about to complete its circuit
        return [Send(nxt, msg)]

    def _advance(self, now: float) -> List[Effect]:
        if self._serving or not self.has_token:
            return []
        effects: List[Effect] = []
        if self.ready:
            self.ready = False
            self.outstanding = False
            self.granted_seq = self.req_seq
            effects.append(Deliver("granted", (self.node_id, self.req_seq)))
            if self.config.hold_until_release:
                self._serving = True
                return effects
            if self.config.service_time > 0:
                self._serving = True
                effects.append(SetTimer(_REL, self.config.service_time))
                return effects
            effects.append(Deliver("released", (self.node_id, self.req_seq)))
        jump = self._next_jump()
        if jump is not None:
            effects.append(jump)
            return effects
        if self.config.idle_pause > 0 and not self._demand_seen:
            self._parked = True
            effects.append(SetTimer(_FWD, self.config.idle_pause))
            return effects
        effects.extend(self._forward())
        return effects

    def _next_jump(self) -> Optional[Send]:
        """Rule 7: hand the token straight to the oldest trapped requester;
        rotation then continues from there."""
        while True:
            t = self.traps.pop()
            if t is None:
                return None
            if t.requester == self.node_id:
                continue
            self.has_token = False
            # A direct hand-over is not a circulation hop: the clock is not
            # advanced (matching the spec, where rule 7 appends no event).
            return Send(t.requester, TokenMsg(
                clock=self.clock, round_no=self.round_no,
            ))

    def _forward(self) -> List[Effect]:
        if self.ring_size() == 1:
            return []
        self.has_token = False
        self._demand_seen = False
        successor = self.ring_succ()
        next_round = (
            self.round_no + 1 if successor == self.ring_first() else self.round_no
        )
        return [Send(successor, TokenMsg(clock=self.clock + 1, round_no=next_round))]
