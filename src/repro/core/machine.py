"""The token machine — what every row of the protocol table does alike.

The token circulates the logical ring (System Message-Passing, rule 3').
A holder (or a node the rotating token reaches) with traps serves them in
FIFO order by **loaning** the token (rule 7's decorated ``ŷ``): the
requester uses it and returns it, and the rotation resumes where it was
intercepted (rule 8).  How a request *finds* the token is not here: a row
of :mod:`repro.core.protocols` stacks a search part
(:mod:`repro.core.parts`) and optional layers over this class, filling
:meth:`_launch_search`, :meth:`_on_sighting` and, chained with
``super()``, ``on_message``/``on_timer`` for the part's own types.  Which
trap is served next is the machine's choice (:meth:`_hand_over`); a row
whose hand-over is not loan-and-return names a hand-over part, which
replaces :meth:`_hand_to` (and :meth:`_record_served`, if nothing it hands
over can go stale).  :meth:`_idle` is the parking rule's notion of "no
demand".

The machine owns the **possession record**, declared once in
``__init__`` so that every consumer (sanitizer, oracle, corruption
injector, supervisor snapshot, the clusters' census) reads it off any
registered core without probing: ``has_token``, ``lent_to``, ``epoch``,
``suspected``, ``clock``, ``round_no``, ``last_visit``, ``req_seq``,
``granted_seq``, ``outstanding``, ``_serving``, ``_parked``,
``_loan_pending``.  It also owns traps with the served carry and their GC,
rotation and parking, loans, and routing around ``suspected``.  Epoch and
suspects stay ``0`` and empty unless a layer writes them, and the traps
stay empty unless a search part lays one, so on a row without those parts
that code is inert.

Optimizations from Section 4.4 that live here, all config-selectable:

- trap GC ``rotation`` (clock-expiry + recent-serves piggyback) and
  ``inverse`` (loans retrace the gimme trail, clearing traps en route);
- ``single_outstanding`` request throttling (honoured by every search);
- ``idle_pause`` adaptive rotation speed — the token parks when idle and
  resumes at full speed the instant demand (a request, an incoming
  search message) appears.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Hashable, Optional, Tuple

from repro.core.base import ProtocolCore
from repro.core.config import GC_INVERSE, GC_ROTATION, ProtocolConfig
from repro.core.messages import LoanMsg, LoanReturnMsg, TokenMsg
from repro.core.traps import Trap, TrapStore
from repro.errors import ProtocolError

__all__ = ["TokenMachine"]

_FWD = "forward"
_REL = "release"


class TokenMachine(ProtocolCore):
    """Per-node token-and-queue state machine under every table row."""

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config)
        self.has_token = node_id == initial_holder
        self.lent_to: Optional[int] = None
        #: Lineage fence stamped on outgoing token/loan messages; only a
        #: layer that mints (regeneration, stabilization) ever raises it.
        self.epoch = 0
        #: Peers the circulation and loans route around; only a layer (or
        #: the supervisor feeding one) ever adds to it.
        self.suspected: set = set()
        #: Optional liveness hook: the set of peers with fresh out-of-band
        #: liveness evidence (the supervisor's heartbeat view).  Consulted
        #: wherever ``suspected`` steers routing, because gossip alone
        #: cannot retire a stale suspicion: the suspects tuple is merged
        #: and re-forwarded inside the same token handler, so while a
        #: token is in flight somewhere, clearing the *set* between
        #: handlers never sticks — the evidence has to win at the point
        #: of use.
        self.alive_provider: Optional[Callable[[], set]] = None
        self.clock = 0
        self.round_no = 0
        self.last_visit = 0 if self.has_token else -1
        self.ready = False
        self.req_seq = 0
        self.granted_seq = -1
        self.outstanding = False
        self.traps = TrapStore()
        self._served_carry: Tuple[Tuple[int, int], ...] = ()
        #: The last carry _merge_served built (sorted by id and trimmed):
        #: when it comes back unchanged, there is nothing to merge.
        self._merged: Tuple[Tuple[int, int], ...] = ()
        # Lazily-rebuilt {z: seq} view of _served_carry (ids are unique in
        # the carry).  Keyed by tuple identity so direct writes to
        # _served_carry (tests, layers) invalidate it automatically.
        self._sm_src: Optional[Tuple[Tuple[int, int], ...]] = None
        self._sm_map: dict = {}
        self._parked = False
        self._serving = False
        self._demand_seen = False
        #: The loan we are serving (hold_until_release / service_time),
        #: kept whole: its return is stamped from it, not from us.
        self._loan_pending: Optional[LoanMsg] = None

    # -- application interface -------------------------------------------------

    def on_request(self, now: float) -> None:
        """Become ready; serve locally when holding, else launch the search."""
        self.ready = True
        self.req_seq += 1
        self._demand_seen = True
        if self.has_token and not self._serving:
            self._unpark_and_advance(now)
        elif self.lent_to is None:  # else served when the loan returns
            self._launch_search()

    def on_release(self, now: float) -> None:
        """Finish using a held grant (hold_until_release mode)."""
        if not self._serving:
            return
        self._serving = False
        self.out.deliver("released", (self.node_id, self.granted_seq))
        if self._loan_pending is not None:
            # We were serving a loaned token: return it now.  A token of
            # our own that arrived meanwhile (a newer lineage reached us
            # mid-service) moves on below instead of being stranded.
            loan, self._loan_pending = self._loan_pending, None
            self._return_loan(loan)
        self._advance(now)

    # -- protocol --------------------------------------------------------------

    def on_start(self, now: float) -> None:
        if self.has_token:
            self.out.deliver("token_visit", (self.node_id, self.clock))
            self._advance(now)

    def on_message(self, src: int, msg: object, now: float) -> None:
        # Exact-type dispatch: message classes are final.  Parts and layers
        # peel off their own types first and chain here with super().
        kind = type(msg)
        if kind is TokenMsg:
            self._on_token(msg, now)
        elif kind is LoanMsg:
            self._on_loan(src, msg, now)
        elif kind is LoanReturnMsg:
            self._on_loan_return(msg, now)
        else:
            raise ProtocolError(
                f"{self.protocol_name} node {self.node_id}: unexpected {msg!r}"
            )

    def on_timer(self, key: Hashable, now: float) -> None:
        if key == _FWD:
            if self.has_token and self._parked:
                self._parked = False
                self._forward()
        elif key == _REL:
            self.on_release(now)

    # -- the search seam ---------------------------------------------------------

    def _launch_search(self) -> None:
        """Our request could not be served locally: go and find the token.
        No search part, no search — the rotation will serve us."""

    def _on_sighting(self, now: float) -> None:
        """The token just came to rest here (arrival, loan return, mint,
        absorption), before it serves or moves on.  A search part that
        holds work back until the next sighting releases it here."""

    # -- token rotation ----------------------------------------------------------

    def _on_token(self, msg: TokenMsg, now: float) -> None:
        if self.has_token or self.lent_to is not None:
            raise ProtocolError(f"node {self.node_id} received a second token")
        self.has_token = True
        self.clock = msg.clock
        self.round_no = msg.round_no
        self.last_visit = msg.clock
        self._merge_served(msg.served)
        self._gc_traps()
        self.out.deliver("token_visit", (self.node_id, self.clock))
        self._on_sighting(now)
        self._advance(now)

    def _unpark_and_advance(self, now: float) -> None:
        """Demand reached a holder that is free to serve: wake a parked
        token, then serve."""
        if self._parked:
            self._parked = False
            self.out.cancel(_FWD)
        self._advance(now)

    def _advance(self, now: float) -> None:
        """Serve self, then FIFO traps (by loan), then rotate or park."""
        if self._serving or not self.has_token:
            return
        if self.ready and self._grant():
            return
        if self._hand_over():
            return
        if self.config.idle_pause > 0 and self._idle():
            self._parked = True
            self.out.timer(_FWD, self.config.idle_pause)
            return
        self._forward()

    def _grant(self) -> bool:
        """Serve our own request with the token that is here now.  True
        when the grant keeps hold of it (until the application releases or
        the service timer fires), False when it was used on the spot."""
        self.ready = False
        self.outstanding = False
        self.granted_seq = self.req_seq
        self._record_served(self.node_id, self.req_seq)
        self.out.deliver("granted", (self.node_id, self.req_seq))
        if self.config.hold_until_release:
            self._serving = True
        elif self.config.service_time > 0:
            self._serving = True
            self.out.timer(_REL, self.config.service_time)
        else:
            self.out.deliver("released", (self.node_id, self.req_seq))
        return self._serving

    def _idle(self) -> bool:
        """Nothing has asked for the token since it came to rest here (a
        request of our own, an incoming search), so it may slow down."""
        return not self._demand_seen

    def _hand_over(self) -> bool:
        """Pop the next live trap and hand the token to its requester;
        False when no live trap remains."""
        while True:
            t = self.traps.pop()
            if t is None:
                return False
            if t.requester == self.node_id:
                continue
            if self._is_served(t.requester, t.req_seq):
                continue
            if self.suspected and t.requester in self._live_suspects():
                continue  # suspected dead: a loan to it would never return
            self._hand_to(t)
            return True

    def _hand_to(self, t: Trap) -> None:
        """The hand-over rule: loan the token to ``t``'s requester."""
        self.has_token = False
        self.lent_to = t.requester
        trail: Tuple[int, ...] = ()
        target = t.requester
        if self.config.trap_gc == GC_INVERSE and t.trail:
            # Retrace the search path backwards, clearing traps en route.
            back = tuple(h for h in reversed(t.trail)
                         if h not in (self.node_id, t.requester))
            if back:
                target = back[0]
                trail = back[1:]
        self.out.send(target, LoanMsg(
            clock=self.clock, round_no=self.round_no,
            lender=self.node_id, requester=t.requester,
            req_seq=t.req_seq, served=self._served_carry, trail=trail,
            epoch=self.epoch,
        ))

    def _forward(self) -> None:
        if self.ring_size() == 1:
            return  # a solitary node keeps its token
        self.has_token = False
        self._demand_seen = False
        successor = self.hop(1)
        gossip: Tuple[int, ...] = ()
        if self.suspected:
            # Route around suspects (the paper's x⁻¹/x⁺¹ healing) and let
            # the token carry the set to the nodes it visits.
            suspects = self._live_suspects()
            gossip = tuple(sorted(suspects))
            successor = next(
                (peer for peer in map(self.hop, range(1, self.ring_size()))
                 if peer not in suspects), self.node_id)
            if successor == self.node_id:
                self.has_token = True
                return  # everyone else is suspected or gone
        next_round = (
            self.round_no + 1 if successor == self.ring_first() else self.round_no
        )
        self.out.send(successor, TokenMsg(
            clock=self.clock + 1, round_no=next_round,
            served=self._served_carry, epoch=self.epoch, suspects=gossip,
        ))

    def _live_suspects(self) -> set:
        """``suspected`` minus peers proven alive out-of-band.  Also prunes
        the set itself, so rehabilitated peers stop riding the gossip."""
        if self.alive_provider is not None:
            self.suspected -= self.alive_provider()
        return self.suspected

    # -- loans ---------------------------------------------------------------------

    def _on_loan(self, src: int, msg: LoanMsg, now: float) -> None:
        if msg.requester != self.node_id:
            # Inverse-GC relay hop: clear our trap and pass the loan along.
            self.traps.remove_for(msg.requester)
            nxt = msg.trail[0] if msg.trail else msg.requester
            self.out.send(nxt, replace(msg, trail=msg.trail[1:]))
            return
        self.last_visit = msg.clock
        self.clock = msg.clock
        self.round_no = msg.round_no
        self._merge_served(msg.served)
        if not self.ready:
            # Stale loan (already served through rotation): bounce it back.
            self._return_loan(msg)
        elif self._grant():
            self._loan_pending = msg
        else:
            self._return_loan(msg)

    def _return_loan(self, loan: LoanMsg) -> None:
        """Hand ``loan`` back to its lender under the *loan's* epoch: a
        borrower that has since adopted a newer lineage must not promote
        the retired one it is returning."""
        self.out.send(loan.lender, LoanReturnMsg(
            clock=loan.clock, round_no=loan.round_no,
            served=self._served_carry, epoch=loan.epoch))

    def _on_loan_return(self, msg: LoanReturnMsg, now: float) -> None:
        if self.lent_to is None:
            raise ProtocolError(
                f"node {self.node_id}: loan return without outstanding loan"
            )
        self.lent_to = None
        self.has_token = True
        self._merge_served(msg.served)
        self._gc_traps()
        self._on_sighting(now)
        self._advance(now)

    # -- served bookkeeping --------------------------------------------------------

    def _record_served(self, z: int, seq: int) -> None:
        if self.config.trap_gc != GC_ROTATION or self.config.served_piggyback == 0:
            return
        entries = [(a, b) for (a, b) in self._served_carry if a != z]
        entries.append((z, seq))
        keep = self.config.served_piggyback
        self._served_carry = tuple(entries[-keep:])

    def _merge_served(self, served: Tuple[Tuple[int, int], ...]) -> None:
        if self.config.trap_gc != GC_ROTATION:
            return
        carry = self._served_carry
        if carry is self._merged and served == carry:
            # Our own last result coming back (a loan's return, a token that
            # met nothing new): it is sorted and trimmed, so merging it with
            # itself gives it back.
            return
        merged = dict(carry)
        for z, seq in served:
            if merged.get(z, -1) < seq:
                merged[z] = seq
        entries = sorted(merged.items())
        keep = self.config.served_piggyback
        if keep and len(entries) > keep:
            entries = entries[-keep:]
        self._served_carry = self._merged = tuple(entries)

    def _served_lookup(self) -> dict:
        """The carry as a ``{z: seq}`` dict, rebuilt only when the carry
        tuple was replaced since the last call."""
        carry = self._served_carry
        if carry is not self._sm_src:
            self._sm_src = carry
            self._sm_map = dict(carry)
        return self._sm_map

    def _is_served(self, z: int, seq: int) -> bool:
        return self._served_lookup().get(z, -1) >= seq

    def _gc_traps(self) -> None:
        if self.traps and self.config.trap_gc == GC_ROTATION:
            self.traps.expire(self.clock, self.ring_size())
            self.traps.drop_served(self._served_lookup())
