"""Search, advertise and hand-over parts — how a request finds the token
(Sections 4.2, 4.4) and how the token then reaches it, each answer written
once.

A part is an ordinary class whose methods run with the assembled core as
``self``: it keeps its own fields, fills a seam of the
:class:`~repro.core.machine.TokenMachine` (search, hand-over, idleness)
and hands every message or timer that is not its own down with
``super()``.  No part names another as a base; which parts a protocol
stacks is a row of :mod:`repro.core.protocols`.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.effects import Port
from repro.core.messages import (
    AdvertMsg,
    AskMsg,
    GimmeMsg,
    ProbeMsg,
    ProbeReplyMsg,
    RequestMsg,
    TokenMsg,
)
from repro.core.traps import Trap

__all__ = ["Advertise", "DelegatedSearch", "DirectHandOver", "DirectSearch",
           "DirectedSearch", "LinearSearch", "RotationOnly", "advert_fanout"]

_FWD = "forward"
_RETRY = "retry"


class LinearSearch:
    """System Search under the Lemma 5 ring restriction — the *linear*
    ancestor of the delegated search: a ready node sends an ``ask`` to its
    ring successor, and each node the ask reaches lays a FIFO trap and
    relays it to *its* successor, so the request walks the ring node by
    node until it meets the token or is one hop short of coming home.
    Responsiveness is O(N) (Lemma 5), the plain ring's bound with search
    traffic on top: the stepping stone the figures compare the binary
    refinement against.
    """

    def _launch_search(self) -> None:
        if self.ring_size() <= 1:
            return
        if self.outstanding and self.config.single_outstanding:
            return
        self.outstanding = True
        self.out.send(self.hop(1), AskMsg(
            requester=self.node_id, req_seq=self.req_seq,
            visit_stamp=self.last_visit,
        ))

    def _on_ask(self, msg: AskMsg, now: float) -> None:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return  # our ask completed a full circuit
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp)
        if self.has_token or self.lent_to is not None:
            # The ask found the token('s owner): serve FIFO when free.
            if self.has_token and not self._serving:
                self._unpark_and_advance(now)
            return
        successor = self.hop(1)
        if successor != msg.requester:  # else its circuit is about to close
            self.out.send(successor, msg)

    def on_message(self, src: int, msg: object, now: float) -> None:
        if type(msg) is AskMsg:
            self._on_ask(msg, now)
        else:
            super().on_message(src, msg, now)


class DelegatedSearch:
    """The paper's contribution: a *gimme* search launched "directly
    across" the ring.  Every node the search touches lays a FIFO trap and
    forwards the search half as far, choosing the direction by comparing
    visit stamps — the bounded-history realisation of rule 6's ``⊂_C``
    comparison (a node whose last token visit is *older* than the
    requester's snapshot concludes the token is behind it,
    counter-clockwise; otherwise ahead, clockwise).

    Config-selectable (Section 4.4): ``forward_throttle`` — at most one
    gimme (own or forwarded) in flight per node, the rest queued until the
    next token sighting; ``retry_timeout`` — because gimmes are cheap
    (droppable), an optional retry recovers search progress under lossy
    networks; the rotation is always the safety net.
    """

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self._gimme_inflight = False
        self._gimme_queue: List[GimmeMsg] = []

    def _launch_search(self) -> None:
        if self.ring_size() <= 1:
            return
        if self.outstanding and self.config.single_outstanding:
            return
        self.outstanding = True
        self._gimme_inflight = True
        span = self.ring_size() // 2
        target = self.hop(span)
        self.out.send(target, GimmeMsg(
            requester=self.node_id, req_seq=self.req_seq, span=span,
            visit_stamp=self.last_visit, trail=(self.node_id,),
        ))
        if self.config.retry_timeout > 0:
            self.out.timer((_RETRY, self.req_seq), self.config.retry_timeout)

    def _on_retry(self, req_seq: int) -> None:
        if self.ready and req_seq == self.req_seq:
            self.outstanding = False
            self._launch_search()

    def _on_gimme(self, msg: GimmeMsg, now: float) -> None:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return  # our own search came all the way around
        if self._is_served(msg.requester, msg.req_seq):
            return  # stale search: its request is already satisfied
        # Traps are stamped with the *requester's* visit stamp: the rotating
        # token reaches the requester within n clock ticks of that stamp, so
        # a trap older than that is provably obsolete (rotation GC).
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp, msg.trail)
        if self.has_token or self.lent_to is not None:
            # The search found the token('s owner): serve FIFO when free.
            if self.has_token and not self._serving:
                self._unpark_and_advance(now)
            return
        half = msg.span // 2
        if half < 1:
            return  # search exhausted; the trap will catch the token
        if self.config.forward_throttle and self._gimme_inflight:
            # Strong throttle: one in-flight gimme per node; the rest wait
            # for the next token sighting (the trap is already laid, so
            # correctness never depends on the delayed forward).
            self._gimme_queue.append(msg)
            return
        if self.last_visit < msg.visit_stamp:
            # Rule 6 / Figure 8(a): the requester saw the token after us, so
            # the token is behind us — continue counter-clockwise.
            target = self.hop(-half)
        else:
            # Figure 8(b): we saw the token after the requester (or neither
            # has) — the token is ahead, continue clockwise.
            target = self.hop(half)
        if target in (self.node_id, msg.requester):
            return
        self._gimme_inflight = True
        self.out.send(target, GimmeMsg(
            requester=msg.requester, req_seq=msg.req_seq, span=half,
            visit_stamp=msg.visit_stamp, trail=msg.trail + (self.node_id,),
        ))

    def _on_sighting(self, now: float) -> None:
        """A token sighting resets the forward-throttle budget and releases
        at most one queued gimme (re-run through the normal handler so
        staleness checks and direction are re-evaluated with fresh state)."""
        self._gimme_inflight = False
        if not self._gimme_queue:
            return
        queued = self._gimme_queue
        self._gimme_queue = []
        for idx, msg in enumerate(queued):
            if self._is_served(msg.requester, msg.req_seq):
                continue
            self._on_gimme(msg, now)
            if self._gimme_inflight:
                self._gimme_queue.extend(queued[idx + 1:])
                break

    def on_message(self, src: int, msg: object, now: float) -> None:
        if type(msg) is GimmeMsg:
            self._on_gimme(msg, now)
        else:
            super().on_message(src, msg, now)

    def on_timer(self, key: Hashable, now: float) -> None:
        if isinstance(key, tuple) and key and key[0] == _RETRY:
            self._on_retry(key[1])
        else:
            super().on_timer(key, now)


class DirectedSearch:
    """Directed search (Section 4.4): "search messages do not migrate
    through the ring but instead are always returned to the searching node
    informing it whether the token was found or not".  The requester
    steers the whole binary search itself: it probes a node, the probed
    node lays a trap and replies with its visit stamp, and the requester
    halves the span and probes again in the direction the reply implies.

    This doubles the search traffic (≤ 2·log N messages per request) but
    lets the requester stop the search the moment it is served — e.g. when
    the rotating token reaches it first — saving the tail of the search.
    The A2 ablation benchmark compares the two disciplines.
    """

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self._probe_span = 0
        #: Where the probe stands, as a ring offset from ourselves — a node
        #: id could not follow a ring view that changes under the search.
        self._probe_offset = 0

    # -- requester side --------------------------------------------------------

    def _launch_search(self) -> None:
        if self.ring_size() <= 1:
            return
        if self.outstanding and self.config.single_outstanding:
            return
        self.outstanding = True
        self._probe_span = self._probe_offset = self.ring_size() // 2
        self._probe()

    def _probe(self) -> None:
        self.out.send(self.hop(self._probe_offset), ProbeMsg(
            requester=self.node_id, req_seq=self.req_seq,
            visit_stamp=self.last_visit,
        ))

    def _on_probe_reply(self, msg: ProbeReplyMsg) -> None:
        if not self.ready or msg.req_seq != self.req_seq:
            return  # already served: stop the search right here
        if msg.has_token:
            return  # the probed holder has trapped us; the loan is coming
        half = self._probe_span // 2
        if half < 1:
            return  # search exhausted; the laid traps will catch the token
        if msg.last_visit < self.last_visit:
            self._probe_offset -= half
        else:
            self._probe_offset += half
        self._probe_span = half
        if self._probe_offset % self.ring_size() != 0:  # else back at ourselves
            self._probe()

    # -- probed side --------------------------------------------------------------

    def _on_probe(self, msg: ProbeMsg, now: float) -> None:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return
        if self._is_served(msg.requester, msg.req_seq):
            return
        holds = self.has_token or self.lent_to is not None
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp)
        self.out.send(msg.requester, ProbeReplyMsg(
            prober=self.node_id, req_seq=msg.req_seq,
            last_visit=self.last_visit, has_token=holds,
        ))
        if self.has_token and not self._serving:
            self._unpark_and_advance(now)

    def on_message(self, src: int, msg: object, now: float) -> None:
        kind = type(msg)
        if kind is ProbeMsg:
            self._on_probe(msg, now)
        elif kind is ProbeReplyMsg:
            self._on_probe_reply(msg)
        else:
            super().on_message(src, msg, now)


class DirectSearch:
    """Push mode's requester (Section 4.2's dual: "keep requests local and
    have the token find which node wants it"): a ready node does not
    search — knowing the holder from the latest advertisement, it sends
    one direct request, and asks again when a fresh advert shows the root
    has moved.  Needs :class:`Advertise` below it in the row (it asks *the
    advertised holder*).  When its knowledge is no good it hands the
    request down with ``super()``: to the next search part if the row has
    one (hybrid: "direct when the advert is fresh, else delegated"), else
    to the machine, whose answer is "the rotation will serve us" — a node
    whose request message is lost is still served by rotation.  Reads the
    row attributes ``fresh_means_newer`` and ``first_request_tracked``.
    """

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self._requested_holder = -1

    def _launch_search(self) -> None:
        if self.ring_size() <= 1:
            return
        if self.outstanding and self.config.single_outstanding:
            return
        holder = self.known_holder
        fresh = holder is not None and holder != self.node_id and (
            not self.fresh_means_newer
            or self.known_holder_clock >= self.last_visit)
        if not fresh:
            super()._launch_search()
            return
        self.outstanding = True
        stamp = -1
        if self.first_request_tracked:
            self._requested_holder = holder
            stamp = self.last_visit
        self.out.send(holder, RequestMsg(
            requester=self.node_id, req_seq=self.req_seq, visit_stamp=stamp,
        ))

    def _on_advert(self, msg: AdvertMsg, now: float) -> None:
        super()._on_advert(msg, now)
        if (self.ready and msg.holder != self.node_id
                and (not self.outstanding
                     or msg.holder != self._requested_holder)):
            # Fresh advert: the root moved since our last request, so the
            # old request is parked as a trap somewhere behind it.  Ask the
            # new root directly (cheap, idempotent — traps dedupe by seq).
            self.outstanding = True
            self._requested_holder = msg.holder
            self.out.send(msg.holder, RequestMsg(
                requester=self.node_id, req_seq=self.req_seq,
                visit_stamp=self.last_visit,
            ))


class DirectHandOver:
    """Rule 7 undecorated — the hand-over of System Search, before the
    paper decorates it into a loan: a holder with a trap sends the token
    *itself* to the oldest trapped requester, and the rotation resumes
    from there.  Nothing is lent, so nothing is returned.
    """

    def _hand_to(self, t: Trap) -> None:
        self.has_token = False
        # Not a circulation hop: the clock is not advanced (in the spec
        # rule 7 appends no event), which is why the row cannot promise
        # the oracle ``strict_hop``.
        self.out.send(t.requester, TokenMsg(
            clock=self.clock, round_no=self.round_no, epoch=self.epoch,
        ))

    def _record_served(self, z: int, seq: int) -> None:
        """Nothing is loaned, so no trap is served-stale in the sense the
        carry retires (a dummy loan and its return); the token travels
        bare, and rotation GC is clock expiry alone."""


class RotationOnly:
    """System Message-Passing with rule 3' and nothing on top — the
    Figures 9/10 baseline: a request never leaves its node, the token
    serves it when the rotation brings it round, O(N) (Lemma 4).  With no
    search nothing lays a trap, so the machine's hand-over never finds one
    and only what follows from that is written here.
    """

    def _record_served(self, z: int, seq: int) -> None:
        """No trap exists for a served carry to retire: the token travels
        bare."""

    def _idle(self) -> bool:
        """Rule 3' has no remote-demand signal, and a request of our own
        says nothing about the rest of the ring: the holder is always idle,
        so the token parks whenever ``idle_pause`` asks, also right after
        serving us.  Slowing the rotation here trades responsiveness for
        messages, which the adaptive-speed ablation (A5) quantifies."""
        return True


def advert_fanout(out: Port, hop: Callable[[int], int], holder: int,
                  clock: int, span: int) -> None:
    """Delegate the upper half of the covered ring segment repeatedly:
    the node responsible for ``[x, x+span)`` hands ``[x+k/2, x+k)`` to the
    node at offset ``k/2`` (``hop(k/2)``, the sender's ring geometry) and
    recurses on the lower half — n−1 messages total across all nodes,
    log₂ n depth.  The adverts go out through ``out``."""
    k = span
    while k >= 2:
        half = k // 2
        out.send(hop(half), AdvertMsg(holder=holder, clock=clock,
                                      span=k - half))
        k = half


class Advertise:
    """Push mode's holder: an idle holder parks the token and
    **advertises** its position through a binary fan-out tree over the
    ring (n−1 cheap messages, log N depth — the paper's observation that a
    parallel search costs Θ(n) messages), traps the direct requests that
    come back FIFO and serves them by loan.

    The parked holder is the paper's "virtual root of a
    token-distribution tree": response is O(1) hops once the advertisement
    has spread, but the message load concentrates at the root — exactly
    the tree-protocol trade-off the conclusion contrasts with the ring's
    load balance (ablation A3 measures both sides).  While demand persists
    the token keeps circulating as usual (requests are also trapped by the
    rotating token), so the ring's fairness and O(N) fallback are
    preserved; under load the token never parks and no adverts flow — the
    "fluid" virtual-root behaviour the conclusion describes.  Reads the row
    attributes ``knows_initial_holder``, ``receipt_refreshes_holder`` and
    ``advert_every_gates``.
    """

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self.known_holder: Optional[int] = (
            initial_holder if self.knows_initial_holder else None)
        self.known_holder_clock = -1
        self._receipts = 0
        self._advertised_clock = -1

    def _advance(self, now: float) -> None:
        super()._advance(now)
        if self.has_token and self._parked:
            # We just parked: become the virtual root.  Advertise once per
            # parking spot (re-parking at the same clock stays silent).
            if self._advertised_clock != self.clock and (
                    not self.advert_every_gates
                    or self._receipts % self.config.advert_every == 0):
                self._advertised_clock = self.clock
                advert_fanout(self.out, self.hop, self.node_id, self.clock,
                              self.ring_size())

    def on_timer(self, key: Hashable, now: float) -> None:
        # A parked virtual root with no demand stays parked: the whole
        # point of push mode is that requests come to the root; demand
        # un-parks it via _advance.
        if (key == _FWD and self.has_token and self._parked
                and not self._demand_seen):
            self.out.timer(_FWD, self.config.idle_pause)
        else:
            super().on_timer(key, now)

    def _on_token(self, msg: TokenMsg, now: float) -> None:
        self._receipts += 1
        if self.receipt_refreshes_holder:
            self.known_holder = self.node_id
            self.known_holder_clock = msg.clock
        super()._on_token(msg, now)

    def _on_request_msg(self, msg: RequestMsg, now: float) -> None:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return
        if self._is_served(msg.requester, msg.req_seq):
            return
        self.traps.add(msg.requester, msg.req_seq,
                       max(msg.visit_stamp, self.last_visit - self.ring_size()))
        if self.has_token and not self._serving:
            self._unpark_and_advance(now)

    def _on_advert(self, msg: AdvertMsg, now: float) -> None:
        if msg.clock >= self.known_holder_clock:
            self.known_holder = msg.holder
            self.known_holder_clock = msg.clock
        advert_fanout(self.out, self.hop, msg.holder, msg.clock, msg.span)

    def on_message(self, src: int, msg: object, now: float) -> None:
        kind = type(msg)
        if kind is RequestMsg:
            self._on_request_msg(msg, now)
        elif kind is AdvertMsg:
            self._on_advert(msg, now)
        else:
            super().on_message(src, msg, now)
