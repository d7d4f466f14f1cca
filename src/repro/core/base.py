"""Sans-IO protocol core interface.

A core is a pure state machine for one node.  Handlers receive the current
virtual time and return a list of :class:`~repro.core.effects.Effect`; they
never touch a clock, a socket, or a scheduler.  The discrete-event driver
(:mod:`repro.sim.driver`) and the asyncio driver (:mod:`repro.aio`)
interpret the effects identically, so one implementation serves tests,
benchmarks, and the real-time runtime.

The shared vocabulary of delivered application events:

- ``Deliver("granted", (node, req_seq))`` — the node's request is being
  served (the paper's "ready node gets the token");
- ``Deliver("released", (node, req_seq))`` — the node finished using the
  token;
- ``Deliver("token_visit", (node, clock))`` — the rotating token arrived
  (used for fairness accounting and round counting);
- ``Deliver("regenerated", (node, epoch))`` — a replacement token was
  minted after a failure.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.core.config import ProtocolConfig
from repro.core.effects import Effect

__all__ = ["ProtocolCore"]


class ProtocolCore:
    """Base class for per-node protocol state machines."""

    #: Human-readable protocol name, overridden by subclasses.
    protocol_name = "abstract"

    def __init__(self, node_id: int, config: ProtocolConfig) -> None:
        config.validate()
        if not 0 <= node_id < config.n:
            raise ValueError(f"node_id {node_id} out of range for n={config.n}")
        self.node_id = node_id
        self.config = config
        self.n = config.n
        #: Optional dynamic ring view (repro.faults.membership.RingView);
        #: when set, geometry follows the view instead of 0..n-1 arithmetic.
        self.ring = None

    # -- ring geometry -------------------------------------------------------

    def ring_size(self) -> int:
        """Number of nodes on the (possibly dynamic) ring."""
        return len(self.ring) if self.ring is not None else self.n

    def hop(self, offset: int) -> int:
        """``self⁺ᵒ`` for a signed offset."""
        if self.ring is not None:
            return self.ring.hop(self.node_id, offset)
        return (self.node_id + offset) % self.n

    def ring_first(self) -> int:
        """The distinguished member whose visit marks a new round."""
        if self.ring is not None:
            return self.ring.members[0]
        return 0

    # -- handler interface ----------------------------------------------------

    def on_start(self, now: float) -> List[Effect]:
        """Called once when the node starts; default does nothing."""
        return []

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        """Handle a network message from ``src``."""
        raise NotImplementedError

    def on_timer(self, key: Hashable, now: float) -> List[Effect]:
        """Handle an armed timer firing; default ignores unknown keys."""
        return []

    def on_request(self, now: float) -> List[Effect]:
        """The application at this node wants the token (becomes *ready*)."""
        raise NotImplementedError

    def on_release(self, now: float) -> List[Effect]:
        """The application releases a held grant (hold_until_release mode)."""
        return []
