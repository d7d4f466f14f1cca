"""The regeneration layer: token-loss detection and recovery (paper
Section 5).

:class:`Regeneration` is a layer of the protocol table
(:mod:`repro.core.protocols`): stacked over any search part and the
:class:`~repro.core.machine.TokenMachine` it adds:

- **time-out detection** — a requester whose wait exceeds
  ``config.regen_timeout`` (or the longer adaptive delay a
  ``regen_delay_provider`` learns from past grant waits) polls the ring
  with (cheap) who-has messages;
- **census + election** — replies collected for ``config.census_window``;
  if nobody claims the token, the non-responders become *suspects*, and
  the first responsive successor of the freshest sighting (operationally,
  the failed holder's surviving neighbour) is told to mint a new token;
- **epochs** — every regenerated token carries a higher epoch; messages
  from older epochs are discarded, so a token that merely *seemed* lost
  cannot yield two circulating tokens once any node has seen the new one;
- **suspects** — it fills the machine's ``suspected`` set (census
  non-responders, gossip on the token, crashed borrowers), which is what
  makes forwarding and loans route around them (the ``x⁻¹``/``x⁺¹``
  healing of the paper) — the routing itself is machine code;
- **loan reclaim** — a lender whose borrower crashed reclaims the token
  after ``config.loan_timeout`` under a fresh epoch.

Detection is deliberately demand-driven, exactly as the paper observes:
with no requester, a lost token goes unnoticed — and harmlessly so.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.messages import (
    LoanMsg,
    LoanReturnMsg,
    RegenerateMsg,
    TokenMsg,
    WhoHasMsg,
    WhoHasReplyMsg,
)
from repro.faults.detector import Census

__all__ = ["Regeneration"]

_SUSPECT = "suspect"
_CENSUS = "census"
_LOANBACK = "loanback"


class Regeneration:
    """Failure detection, election, epoch-fenced regeneration."""

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self._census: Optional[Census] = None
        self._probe_seq = 0
        #: Freshest fleet-wide clock seen at the previous census deadline —
        #: the baseline for the progress check (see _on_census_deadline).
        self._fleet_max: Optional[int] = None
        #: Optional adaptive detection hook (the asyncio supervisor wires a
        #: multiple of this node's mean grant wait here): returns the
        #: suspect-timer delay in message-delay units, or None.  The
        #: configured ``regen_timeout`` is its floor.
        self.regen_delay_provider: Optional[Callable[[], Optional[float]]] = None
        #: (time, census count, epoch) when the pending request was made.
        self._asked: Optional[Tuple[float, int, int]] = None
        #: When the request just granted was made, or None if a census ran
        #: or a regenerated token arrived while it waited: such a wait
        #: times a recovery, not the token (read by the supervisor).
        self.granted_since: Optional[float] = None

    def _suspect_delay(self) -> float:
        """Delay before this requester suspects the token is lost."""
        if self.regen_delay_provider is not None:
            adaptive = self.regen_delay_provider()
            if adaptive is not None:
                return max(self.config.regen_timeout, adaptive)
        return self.config.regen_timeout

    def _ring_members(self) -> List[int]:
        if self.ring is not None:
            return list(self.ring.members)
        return list(range(self.n))

    # -- epochs & loan reclaim ----------------------------------------------------

    def _next_epoch(self, minter: int) -> int:
        """The epoch a regeneration by ``minter`` would create.

        Epochs stride by ``n`` with the minter's id stamped into the low
        digits, so two *racing* regenerations (two census origins electing
        different regenerators off asymmetric reply loss, or a loan reclaim
        racing a census) can never coin the same number: the resulting
        tokens carry ordered epochs and the standard ``msg_epoch <
        self.epoch`` fence retires the loser on first contact.  With a
        shared plain ``+ 1`` both sides would mint the *same* epoch and two
        tokens would circulate unfenced.

        The stride is ``config.n``, the id ceiling a join grows, not the
        ``n`` this core was built with, so a joiner and older cores mint one
        epoch per election (else one fences the other's loan return and the
        token is lost for good).  Unverified: with no shared config, an old
        core electing the joiner (id >= its stride) could coin another
        minter's epoch.
        """
        stride = max(self.config.n, 1)
        return (self.epoch // stride + 1) * stride + minter

    def _hand_over(self) -> bool:
        handed = super()._hand_over()
        if handed and self.config.loan_timeout > 0:
            # The borrower may crash with our token: arm the reclaim.
            self.out.timer((_LOANBACK, self.lent_to), self.config.loan_timeout)
        return handed

    # -- message handling ---------------------------------------------------------------

    def on_message(self, src: int, msg: object, now: float) -> None:
        # Any traffic from ``src`` is direct evidence it is alive — clear
        # it before anything else.  Without this, suspicion gossip is
        # self-sustaining: every token forward re-carries the suspects
        # tuple, every receiver re-merges it in the same handler that
        # forwards, and a *recovered* node stays routed around forever,
        # starving its own requests.  Its probes reaching us break the
        # chain.
        self.suspected.discard(src)
        if isinstance(msg, (TokenMsg, LoanMsg, LoanReturnMsg)):
            msg_epoch = getattr(msg, "epoch", 0)
            if msg_epoch < self.epoch:
                return  # stale token lineage: discard
            if msg_epoch > self.epoch:
                self.epoch = msg_epoch
                if isinstance(msg, (TokenMsg, LoanMsg)):
                    # Two racing regenerations mint tokens at *ordered*
                    # epochs (see _next_epoch); this message outranks any
                    # lineage we still carry, so retire ours here — the
                    # fence that normally kills the loser on contact,
                    # applied to ourselves.  Without this, the machine
                    # would see an illegal "second token".
                    self.has_token = False
                    self.lent_to = None
        if isinstance(msg, WhoHasMsg):
            self._on_who_has(src, msg)
        elif isinstance(msg, WhoHasReplyMsg):
            self._on_who_has_reply(src, msg)
        elif isinstance(msg, RegenerateMsg):
            self._mint(msg, now)
        else:
            if isinstance(msg, TokenMsg):
                self.suspected |= set(msg.suspects)
                self.suspected.discard(self.node_id)
                self.suspected.discard(src)  # evidently alive after all
            super().on_message(src, msg, now)

    # -- detection ------------------------------------------------------------------------

    def on_request(self, now: float) -> None:
        if not self.ready:  # a repeated request keeps the first stamp
            self._asked = (now, self._probe_seq, self.epoch)
        super().on_request(now)
        if self.ready and self.config.regen_timeout > 0:
            self.out.timer((_SUSPECT, self.req_seq), self._suspect_delay())

    def on_timer(self, key: Hashable, now: float) -> None:
        tag = key[0] if isinstance(key, tuple) and key else None
        if tag == _SUSPECT:
            self._on_suspect(key[1])
        elif tag == _CENSUS:
            self._on_census_deadline(key[1], now)
        elif tag == _LOANBACK:
            self._on_loan_timeout(key[1], now)
        else:
            super().on_timer(key, now)

    def _grant(self) -> bool:
        asked, self._asked = self._asked, None
        clean = asked is not None and asked[1:] == (self._probe_seq, self.epoch)
        self.granted_since = asked[0] if clean else None
        return super()._grant()

    def _on_suspect(self, req_seq: int) -> None:
        if not self.ready or req_seq != self.req_seq:
            return
        if self.has_token or self._census is not None:
            return
        self._census = self._open_census(_CENSUS)

    def _open_census(self, timer: str) -> Census:
        """Poll every other ring member with who-has; replies are collected
        until the ``(timer, probe_seq)`` deadline one census window away."""
        self._probe_seq += 1
        population = [x for x in self._ring_members() if x != self.node_id]
        for x in population:
            self.out.send(x, WhoHasMsg(origin=self.node_id,
                                       probe_seq=self._probe_seq))
        self.out.timer((timer, self._probe_seq), self.config.census_window)
        return Census(self.node_id, self._probe_seq, population)

    def _on_who_has(self, src: int, msg: WhoHasMsg) -> None:
        holds = self.has_token or self.lent_to is not None
        self.out.send(msg.origin, WhoHasReplyMsg(
            origin=msg.origin, probe_seq=msg.probe_seq,
            last_clock=self.last_visit, has_token=holds,
        ))

    def _on_who_has_reply(self, src: int, msg: WhoHasReplyMsg) -> None:
        census = self._census
        if census is not None and msg.probe_seq == census.probe_seq:
            census.record(src, msg.last_clock, msg.has_token)

    def _on_census_deadline(self, probe_seq: int, now: float) -> None:
        census = self._census
        if census is None or census.probe_seq != probe_seq:
            return
        self._census = None
        if not self.ready:
            return
        origin_holds = self.has_token or self.lent_to is not None
        if census.token_alive(origin_holds):
            # The token exists; we were just slow.  Re-arm detection.
            self.out.timer((_SUSPECT, self.req_seq), self._suspect_delay())
            return
        _, fleet_max = census.freshest(self.last_visit)
        progressed = self._fleet_max is not None and fleet_max > self._fleet_max
        self._fleet_max = fleet_max
        if progressed:
            # Nobody *claims* the token, yet the fleet's freshest visit
            # clock advanced since our previous census: the token is
            # circulating and simply never at rest when polled (continuous
            # rotation keeps it in flight almost all the time).  Minting
            # here would coin a duplicate whose clock lags the live
            # lineage.  Keep watching instead — at census cadence, not the
            # full suspect delay: we are mid-episode, and if the progress
            # was stale history the next census must come quickly.
            self.out.timer((_SUSPECT, self.req_seq),
                           self.config.census_window)
            return
        if self.config.regen_quorum:
            # Partition-resilient mode: only a side that can still hear a
            # majority of the ring may mint.  A minority island *parks* —
            # it keeps probing, and on heal either hears the token or
            # finally reaches quorum.  (Epoch fencing would retire a
            # minority-minted duplicate anyway; parking avoids minting it
            # in the first place.)
            ring_size = len(self._ring_members())
            if 2 * (census.replies + 1) <= ring_size:
                self.out.timer((_SUSPECT, self.req_seq), self._suspect_delay())
                return
        self.suspected |= census.suspects()
        ring_order = self._ring_members()
        regenerator = census.elect_regenerator(ring_order, self.last_visit)
        if regenerator is not None:
            _, freshest_clock = census.freshest(self.last_visit)
            new_epoch = self._next_epoch(regenerator)
            new_clock = freshest_clock + self.ring_size()
            regen = RegenerateMsg(new_clock=new_clock, epoch=new_epoch,
                                  suspects=tuple(sorted(self.suspected)))
            if regenerator == self.node_id:
                self._mint(regen, now)
            else:
                self.out.send(regenerator, regen)
        # Keep watching: regeneration itself might be lost.
        self.out.timer((_SUSPECT, self.req_seq), self._suspect_delay())

    # -- regeneration -------------------------------------------------------------------------

    def _mint(self, msg: RegenerateMsg, now: float) -> None:
        if msg.epoch <= self.epoch:
            return  # duplicate or raced regeneration: only one epoch wins
        self.epoch = msg.epoch
        self.suspected |= set(msg.suspects)
        self.suspected.discard(self.node_id)
        if self.has_token or self.lent_to is not None:
            return  # we already carry the lineage forward
        self.has_token = True
        self.clock = msg.new_clock
        self.round_no = msg.new_clock // max(self.ring_size(), 1)
        self.last_visit = msg.new_clock
        self.out.deliver("regenerated", (self.node_id, self.epoch))
        self.out.deliver("token_visit", (self.node_id, self.clock))
        self._advance(now)

    def _on_loan_timeout(self, requester: int, now: float) -> None:
        if self.lent_to != requester:
            return
        # The borrower crashed with our token: reclaim it under a new epoch.
        self.lent_to = None
        self.has_token = True
        self.epoch = self._next_epoch(self.node_id)
        self.suspected.add(requester)
        self.out.deliver("regenerated", (self.node_id, self.epoch))
        self._advance(now)

    def _on_loan_return(self, msg: LoanReturnMsg, now: float) -> None:
        if self.lent_to is not None:  # else reclaimed; the borrower survived
            super()._on_loan_return(msg, now)
