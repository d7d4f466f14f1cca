"""The stabilization layer: self-stabilization over regeneration.

:class:`Stabilization` is a layer of the protocol table
(:mod:`repro.core.protocols`).  It needs the epochs, census and mint of
:class:`~repro.core.regeneration.Regeneration` and says so the plain way,
by naming it as its base.  It adds three convergence mechanisms, so that
from *any* state the corruption injector (:mod:`repro.faults.corruption`)
can produce, the cluster returns to — and stays in — the single-token
legitimate states:

1. **Local detection-and-correction** (Herman's safe-register checks,
   arXiv:1101.1680, transposed to message passing): every handler entry
   first repairs locally-refutable inconsistencies — a token lent to
   oneself, a grant sequence ahead of the request sequence, negative
   clocks, a service flag with nothing to serve.  When a repair fires
   and ``config.stabilize_reset`` is on, the node additionally reloads
   its *derivable* volatile state (traps, queued searches, served-map
   carry, census bookkeeping) from scratch — the reloading-wave reset of
   arXiv:1109.3561 in local form: all of it is an optimization cache the
   protocol rebuilds through normal operation.

2. **Epoch-fenced token reduction** (k tokens -> 1): a node that holds
   or has lent a token *absorbs* any other token it encounters — an
   arriving same-epoch ``TokenMsg``, a stale-epoch ``TokenMsg``, or a
   loan addressed to itself — merging clocks and served-maps and minting
   a strictly higher epoch that retires every remaining copy on first
   contact.  Two same-epoch tokens rotating antipodally never meet, so
   the distinguished ring head additionally tracks the round number of
   each arrival: within one epoch, rounds at the head are strictly
   increasing in legitimate runs, and a non-increasing arrival is proof
   of duplication — absorbed on the spot.  A *stale* token arriving at a
   token-less node is absorbed rather than discarded, so a corrupted
   epoch fence swallows at most one in-flight copy instead of eating
   every regeneration attempt.

3. **A token watchdog** (the regeneration safety net made unconditional):
   demand-driven detection — the paper's design, kept — only notices a
   lost token when somebody wants it, and a corrupted state can kill the
   token with nobody ready.  Every node therefore runs a who-has census
   on a staggered ``config.stabilize_watch`` cadence, holder or not, and
   mints a fenced replacement after two consecutive censuses that show
   neither a claimed token nor visit-clock progress.  Staggering plus
   the two-census progress requirement keeps the watchdog quiet while
   any token lives, *provided message delays are bounded* by roughly the
   watch period — the classic partial-synchrony caveat of every
   timeout-based detector.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.effects import Deliver, Effect, SetTimer
from repro.core.messages import LoanMsg, TokenMsg, WhoHasReplyMsg
from repro.core.traps import TrapStore
from repro.core.regeneration import Regeneration
from repro.faults.detector import Census

__all__ = ["Stabilization"]

_WATCH = "stab_watch"
_WCENSUS = "stab_census"


class Stabilization(Regeneration):
    """Local repair, k -> 1 token reduction, and a token watchdog."""

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        #: Duplicate detection at the ring head: highest round number
        #: seen arriving, per epoch (reset whenever the epoch moves).
        self._round_seen = 0
        self._seen_epoch = 0
        #: Watchdog census state, separate from the demand-driven one so
        #: a ready requester's census never collides with the watchdog's.
        self._watch_census: Optional[Census] = None
        self._watch_base: Optional[int] = None
        #: Counters for tests/metrics.
        self.repairs = 0
        self.absorptions = 0

    # -- local detection and correction --------------------------------------

    def _repair(self, now: float) -> bool:
        """Clamp locally-refutable inconsistencies; returns True when any
        repair fired (triggering the optional volatile-state reload)."""
        fixed = 0
        if self.lent_to == self.node_id:
            self.lent_to = None
            self.has_token = True
            fixed += 1
        if self.has_token and self.lent_to is not None:
            self.lent_to = None
            fixed += 1
        if self.clock < 0:
            self.clock = 0
            fixed += 1
        if self.last_visit < -1:
            self.last_visit = -1
            fixed += 1
        if self.round_no < 0:
            self.round_no = 0
            fixed += 1
        if self.has_token and self.clock < self.last_visit:
            self.clock = self.last_visit
            fixed += 1
        if self.granted_seq > self.req_seq:
            self.granted_seq = self.req_seq
            fixed += 1
        if self.outstanding and not self.ready:
            self.outstanding = False
            fixed += 1
        if self._serving and not (self.has_token
                                  or self._loan_pending is not None):
            self._serving = False
            fixed += 1
        if not fixed:
            return False
        self.repairs += fixed
        if self.config.stabilize_reset:
            # Reloading-wave-lite: every structure below is a rebuildable
            # optimization cache; dropping it costs performance, never
            # safety (dummy loans and re-searches recover the rest).  The
            # gimme pair is the delegated search's; under any other search
            # part the two fields are simply never read.
            self.traps = TrapStore()
            self._gimme_queue = []
            self._gimme_inflight = False
            self._served_carry = ()
            self._census = None
            self._watch_census = None
        return True

    # -- token reduction ------------------------------------------------------

    def _absorb(self, msg: object, now: float) -> List[Effect]:
        """Take an encountered token unit as our own and fence the world:
        the minted epoch strictly outranks every other copy, so survivors
        retire on first contact (k tokens -> 1)."""
        self.absorptions += 1
        self.has_token = True
        self.lent_to = None
        self.clock = max(self.clock, getattr(msg, "clock", 0))
        self.last_visit = self.clock
        self.round_no = max(self.round_no, getattr(msg, "round_no", 0))
        self._merge_served(getattr(msg, "served", ()))
        self.epoch = self._next_epoch(self.node_id)
        self._gc_traps()
        effects: List[Effect] = [
            Deliver("stabilized", (self.node_id, self.epoch)),
            Deliver("token_visit", (self.node_id, self.clock)),
        ]
        effects.extend(self._on_sighting(now))
        effects.extend(self._advance(now))
        return effects

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        self._repair(now)
        if isinstance(msg, TokenMsg) and \
                getattr(msg, "epoch", 0) < self.epoch:
            if self.has_token or self.lent_to is not None:
                return []  # reduction: the stale copy dies on contact
            # Rescue the unit: a corrupted-high fence would otherwise
            # swallow every token that ever reaches this node.
            return self._absorb(msg, now)
        return super().on_message(src, msg, now)

    def _on_token(self, msg: TokenMsg, now: float) -> List[Effect]:
        duplicate = self.has_token or self.lent_to is not None
        if self.node_id == self.ring_first():
            if self._seen_epoch != self.epoch:
                self._seen_epoch = self.epoch
                self._round_seen = msg.round_no
            elif msg.round_no <= self._round_seen:
                # Within one epoch, arrivals at the ring head carry
                # strictly increasing rounds; a repeat means two copies
                # are rotating (possibly antipodally, never colliding).
                duplicate = True
            else:
                self._round_seen = msg.round_no
        if duplicate:
            return self._absorb(msg, now)
        return super()._on_token(msg, now)

    def _on_loan(self, src: int, msg: LoanMsg, now: float) -> List[Effect]:
        if msg.requester == self.node_id and (
                self.has_token or self.lent_to is not None):
            # A loan reaching a node that already has a token is a second
            # unit; returning it would perpetuate the duplication.
            return self._absorb(msg, now)
        return super()._on_loan(src, msg, now)

    # -- watchdog -------------------------------------------------------------

    def on_start(self, now: float) -> List[Effect]:
        effects = super().on_start(now)
        if self.config.stabilize_watch > 0:
            effects.append(SetTimer(_WATCH, self._watch_period()))
        return effects

    def _watch_period(self) -> float:
        """Per-node staggered cadence so censuses (and mints) serialize."""
        n = max(self.ring_size(), 1)
        return self.config.stabilize_watch * (1.0 + self.node_id / (2.0 * n))

    def on_request(self, now: float) -> List[Effect]:
        self._repair(now)
        return super().on_request(now)

    def on_timer(self, key: Hashable, now: float) -> List[Effect]:
        self._repair(now)
        if key == _WATCH:
            return self._on_watch(now)
        if isinstance(key, tuple) and key and key[0] == _WCENSUS:
            return self._on_watch_deadline(key[1], now)
        return super().on_timer(key, now)

    def _on_watch(self, now: float) -> List[Effect]:
        if self.config.stabilize_watch <= 0:
            return []
        effects: List[Effect] = [SetTimer(_WATCH, self._watch_period())]
        if self.has_token or self.lent_to is not None \
                or self._loan_pending is not None:
            self._watch_base = None
            return effects
        if self._watch_census is not None:
            return effects  # previous census still collecting
        if self._ring_members() == [self.node_id]:
            # Solitary node: nothing to poll; mint directly if tokenless.
            return effects + self._watch_mint(now, self.last_visit)
        self._watch_census, polls = self._open_census(_WCENSUS)
        return effects + polls

    def _on_who_has_reply(self, src: int,
                          msg: WhoHasReplyMsg) -> List[Effect]:
        census = self._watch_census
        if census is not None and msg.probe_seq == census.probe_seq:
            census.record(src, msg.last_clock, msg.has_token)
            return []
        return super()._on_who_has_reply(src, msg)

    def _on_watch_deadline(self, probe_seq: int, now: float) -> List[Effect]:
        census = self._watch_census
        if census is None or census.probe_seq != probe_seq:
            return []
        self._watch_census = None
        if self.has_token or self.lent_to is not None \
                or self._loan_pending is not None:
            self._watch_base = None
            return []
        if census.token_alive(False):
            self._watch_base = None
            return []
        _, fleet_max = census.freshest(self.last_visit)
        if self._watch_base is not None and fleet_max <= self._watch_base:
            # Two consecutive censuses: no claimed token, no clock
            # progress.  With bounded delays a live token cannot hide
            # through both — mint a fenced replacement.
            self._watch_base = None
            return self._watch_mint(now, fleet_max)
        self._watch_base = fleet_max
        return []

    def _watch_mint(self, now: float, fleet_max: int) -> List[Effect]:
        if self.has_token or self.lent_to is not None:
            return []
        self.epoch = self._next_epoch(self.node_id)
        self.has_token = True
        self.clock = max(self.clock, fleet_max) + self.ring_size()
        self.round_no = self.clock // max(self.ring_size(), 1)
        self.last_visit = self.clock
        effects: List[Effect] = [
            Deliver("regenerated", (self.node_id, self.epoch)),
            Deliver("token_visit", (self.node_id, self.clock)),
        ]
        effects.extend(self._on_sighting(now))
        effects.extend(self._advance(now))
        return effects
