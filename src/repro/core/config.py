"""Protocol configuration.

One dataclass covers every protocol variant; fields irrelevant to a given
row of the protocol table are ignored by it.  Defaults reproduce the paper's simulation set-up
(Section 4.3): unit message delay, zero-cost local events, continuous
token rotation, single outstanding request, rotation-based trap GC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ProtocolConfig", "GC_NONE", "GC_ROTATION", "GC_INVERSE"]

GC_NONE = "none"
GC_ROTATION = "rotation"
GC_INVERSE = "inverse"

_GC_POLICIES = (GC_NONE, GC_ROTATION, GC_INVERSE)


@dataclass
class ProtocolConfig:
    """Tunable knobs shared by the executable protocol cores.

    - ``trap_gc`` — obsolete-trap garbage collection (Section 4.4):
      ``"none"`` keeps traps until they fire (stale traps cause dummy
      loans); ``"rotation"`` expires traps after the token demonstrably
      completed a circulation past the requester and piggybacks the most
      recent serves on the token; ``"inverse"`` routes loans back along the
      search trail, clearing traps en route.
    - ``served_piggyback`` — how many recent serves the token carries under
      rotation GC (bounded so token messages stay O(1)-ish).  Known
      divergence: when two carries merge, the trim keeps the *highest node
      ids*, not the most recent serves, so a serve by a low id rarely
      outlives one hop (a strict xfail in
      ``tests/core/test_binary_search_core.py`` states the intended rule).
    - ``single_outstanding`` — at most one *own* gimme in flight per node
      (Section 4.4); further requests wait for the first to be satisfied.
    - ``forward_throttle`` — the strong form of the Section 4.4 remark:
      each node keeps at most one gimme (own or forwarded) in flight,
      queueing the rest until the next token sighting — which bounds the
      total gimme traffic by the number of token passes.
    - ``idle_pause`` — adaptive token speed (Section 4.4): the holder waits
      this long before forwarding when it has seen no demand; 0 = the
      paper's continuous full-speed rotation.
    - ``service_time`` — how long a grantee holds the token before
      releasing; 0 matches the paper's zero-cost local events.
    - ``retry_timeout`` — requesters re-issue their (cheap, droppable)
      search after this long without a grant; 0 disables retries and relies
      on the ring rotation as the safety net.
    - ``hold_until_release`` — grants block the token until the application
      explicitly releases (used by the mutex/broadcast apps); the
      simulation experiments use auto-release.
    - ``regen_timeout`` / ``census_window`` / ``loan_timeout`` — token-loss
      detection and regeneration (Section 5): a requester waiting longer
      than ``regen_timeout`` runs a who-has census, waits ``census_window``
      for replies, and elects a regenerator; a lender reclaims an unreturned
      loan after ``loan_timeout``.  0 disables each mechanism.
    - ``regen_quorum`` — partition-resilient regeneration: a census origin
      may only elect a regenerator when it heard from a strict majority of
      the ring.  A minority partition parks (keeps probing) instead of
      minting a token that epoch fencing would have to retire on heal.
      Off by default to preserve the paper's plain Section 5 behaviour.
    - ``stabilize_watch`` — the stabilization layer's watchdog
      period: every node, holder or not, re-censuses the ring on this
      cadence and mints a fenced replacement token after two consecutive
      censuses that show neither a live token nor progress.  0 disables
      the watchdog (the core still absorbs duplicates and repairs local
      state on every event).
    - ``stabilize_reset`` — allow the reloading-wave-style full reset of a
      node's volatile bookkeeping (queues, traps, memos) when local repair
      finds it inconsistent; off limits repair to field clamping.
    """

    n: int = 0
    trap_gc: str = GC_ROTATION
    served_piggyback: int = 8
    single_outstanding: bool = True
    forward_throttle: bool = False
    idle_pause: float = 0.0
    service_time: float = 0.0
    retry_timeout: float = 0.0
    hold_until_release: bool = False
    regen_timeout: float = 0.0
    census_window: float = 5.0
    loan_timeout: float = 0.0
    regen_quorum: bool = False
    stabilize_watch: float = 0.0
    stabilize_reset: bool = True

    def validate(self) -> "ProtocolConfig":
        """Check field consistency; return self for chaining."""
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.trap_gc not in _GC_POLICIES:
            raise ConfigError(
                f"trap_gc must be one of {_GC_POLICIES}, got {self.trap_gc!r}"
            )
        if self.served_piggyback < 0:
            raise ConfigError("served_piggyback must be >= 0")
        if self.idle_pause < 0:
            raise ConfigError("idle_pause must be >= 0")
        if self.service_time < 0:
            raise ConfigError("service_time must be >= 0")
        if self.retry_timeout < 0:
            raise ConfigError("retry_timeout must be >= 0")
        if self.regen_timeout < 0:
            raise ConfigError("regen_timeout must be >= 0")
        if self.census_window <= 0:
            raise ConfigError("census_window must be positive")
        if self.loan_timeout < 0:
            raise ConfigError("loan_timeout must be >= 0")
        if self.stabilize_watch < 0:
            raise ConfigError("stabilize_watch must be >= 0")
        return self
