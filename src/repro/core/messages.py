"""Wire messages of the executable token-passing protocols.

Each message is a frozen dataclass; the four sent on nearly every
simulated event (token, loan, return, gimme) take
:func:`~repro.core.records.fast_init`'s constructor.  ``reliable``
encodes the paper's expensive/cheap duality (Section 1): the token and
its loan are *expensive* (the network never drops them); every search /
trap / probe message is *cheap* — the protocols stay safe if all of them
are lost.

Histories are not shipped in full: following the Section 4.4
bounded-history optimization, the token carries a **visit clock** (one
tick per circulation hop) and a round counter, and every node remembers the
clock value of the token's last visit.  The ``⊂_C`` prefix comparison of
rule 6 then becomes an integer comparison of visit stamps (the spec layer
in :mod:`repro.specs` keeps the full-history semantics and is used to
validate this equivalence on small instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.records import fast_init

__all__ = [
    "TokenMsg",
    "LoanMsg",
    "LoanReturnMsg",
    "GimmeMsg",
    "AskMsg",
    "ProbeMsg",
    "ProbeReplyMsg",
    "AdvertMsg",
    "RequestMsg",
    "WhoHasMsg",
    "WhoHasReplyMsg",
    "RegenerateMsg",
    "HeartbeatMsg",
]


@dataclass(frozen=True)
class Message:
    """Base class; subclasses override ``reliable`` as a class attribute.
    Left out of ``__all__``: nothing sends it, so the wire codec does not
    register it."""

    reliable = True


@fast_init
@dataclass(frozen=True)
class TokenMsg(Message):
    """The rotating token (expensive).

    ``clock`` — visit counter, incremented at every circulation hop;
    ``round_no`` — completed circulations (for round-based trap GC);
    ``served`` — requester id → highest served request seq (rotation GC);
    ``membership`` — never set (views reach cores in-process); kept
    because it is in every pinned send digest's ``repr``.
    """

    clock: int
    round_no: int
    served: Tuple[Tuple[int, int], ...] = ()
    membership: Optional[Tuple[int, Tuple[int, ...]]] = None
    epoch: int = 0
    suspects: Tuple[int, ...] = ()

    reliable = True


@fast_init
@dataclass(frozen=True)
class LoanMsg(Message):
    """Rule 7's decorated token ``ŷ``: must be returned to the lender.

    Under inverse-token trap GC, ``trail`` lists the intermediate nodes the
    loan must traverse (clearing their traps) before reaching ``requester``.
    """

    clock: int
    round_no: int
    lender: int
    requester: int
    req_seq: int
    served: Tuple[Tuple[int, int], ...] = ()
    trail: Tuple[int, ...] = ()
    epoch: int = 0

    reliable = True


@fast_init
@dataclass(frozen=True)
class LoanReturnMsg(Message):
    """Rule 8's return of a loaned token to the lender."""

    clock: int
    round_no: int
    served: Tuple[Tuple[int, int], ...] = ()
    epoch: int = 0

    reliable = True


@fast_init
@dataclass(frozen=True)
class GimmeMsg(Message):
    """Binary-search request (cheap): ``span`` halves at each forward.

    ``visit_stamp`` is the requester's last-seen token clock — the
    bounded-history stand-in for the ``H_z`` snapshot of rule 6.
    ``trail`` records the nodes traversed (for inverse-token trap GC).
    """

    requester: int
    req_seq: int
    span: int
    visit_stamp: int
    trail: Tuple[int, ...] = ()

    reliable = False


@dataclass(frozen=True)
class AskMsg(Message):
    """System Search's linear search message (cheap)."""

    requester: int
    req_seq: int
    visit_stamp: int

    reliable = False


@dataclass(frozen=True)
class AdvertMsg(Message):
    """Push-mode advertisement (cheap): the holder announces the token's
    position via a binary fan-out tree over the ring."""

    holder: int
    clock: int
    span: int

    reliable = False


@dataclass(frozen=True)
class RequestMsg(Message):
    """Push-mode direct request (cheap): a ready node that learned the
    holder's position asks it for the token."""

    requester: int
    req_seq: int
    visit_stamp: int = -1

    reliable = False


@dataclass(frozen=True)
class ProbeMsg(Message):
    """Directed search (Section 4.4): the requester itself probes a node,
    which lays a trap and replies instead of forwarding (cheap)."""

    requester: int
    req_seq: int
    visit_stamp: int

    reliable = False


@dataclass(frozen=True)
class ProbeReplyMsg(Message):
    """Reply to :class:`ProbeMsg` carrying the probed node's visit stamp
    (and whether it holds the token) so the requester can steer the next
    probe (cheap)."""

    prober: int
    req_seq: int
    last_visit: int
    has_token: bool

    reliable = False


@dataclass(frozen=True)
class WhoHasMsg(Message):
    """Failure handling: ask a neighbour whether it has seen the token
    since the given clock (cheap)."""

    origin: int
    probe_seq: int

    reliable = False


@dataclass(frozen=True)
class WhoHasReplyMsg(Message):
    """Reply to :class:`WhoHasMsg` with the replier's view (cheap)."""

    origin: int
    probe_seq: int
    last_clock: int
    has_token: bool

    reliable = False


@dataclass(frozen=True)
class RegenerateMsg(Message):
    """Failure handling: the elected neighbour mints a replacement token
    (expensive — a regenerated token is a real token)."""

    new_clock: int
    epoch: int
    suspects: Tuple[int, ...] = ()

    reliable = True


@dataclass(frozen=True)
class HeartbeatMsg(Message):
    """Runtime liveness beacon (cheap): a supervised node's "I am alive"
    to its ring neighbours, sent only when nothing of it was heard
    lately.  Consumed by the driver layer; never reaches a protocol
    core."""

    sender: int
    seq: int
    last_visit: int = -1

    reliable = False
