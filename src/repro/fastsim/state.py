"""Flat column-oriented node state for the array-compiled engine.

The object cores (the rows of :mod:`repro.core.protocols` over
:mod:`repro.core.machine`) keep one Python object per node with ~15
attributes; every handler pays attribute-dictionary lookups and
allocates effect/message dataclasses.
The fast engine replaces all of that with *columns*: one ``bytearray``
per boolean flag, one flat int list per integer register, and plain
Python lists/dicts for the few per-node structures that hold tuples
(the served-carry piggyback, the FIFO trap queue).  Messages become plain
tuples tagged with a small integer, queued directly in the event
calendar — no port calls, no frozen dataclasses, no driver layer.

Equivalence contract: for every configuration accepted by
:func:`unsupported_reason` (returning ``None``), a run through the
compiled engine produces **bit-identical** observable behaviour to the
object stack — same kernel event count, same send stream (order, fields,
timestamps), same grants and responsiveness samples.  The differential
tests in ``tests/fastsim/`` enforce this against the fuzz corpus and a
generated configuration matrix.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.config import GC_INVERSE, GC_ROTATION, ProtocolConfig
from repro.sim.network import (ConstantDelay, DelayModel, ExponentialDelay,
                               UniformDelay)

__all__ = [
    "ArrayState",
    "unsupported_reason",
    "TAG_TOKEN",
    "TAG_GIMME",
    "TAG_LOAN",
    "TAG_LOAN_RETURN",
    "TAG_WORKLOAD",
    "TAG_REQUEST",
    "TAG_FWD",
    "TAG_REL",
    "TAG_RETRY",
]

#: Delivery tags (hot; dispatch checks GIMME/TOKEN first).
TAG_TOKEN = 0
TAG_GIMME = 1
TAG_LOAN = 2
TAG_LOAN_RETURN = 3
#: Non-delivery tags (timers, workload ticks, scheduled requests).
TAG_WORKLOAD = 10
TAG_REQUEST = 11
TAG_FWD = 12
TAG_REL = 13
TAG_RETRY = 14

_PROTOCOLS = ("ring", "binary_search")


def unsupported_reason(protocol: str, config: ProtocolConfig,
                       delay: Optional[DelayModel] = None) -> Optional[str]:
    """Why this configuration cannot run on the fast path (None = it can).

    The support matrix is intentionally explicit: everything inside it is
    covered by the differential tests; everything outside raises instead
    of risking silent divergence from the object cores.
    """
    if protocol not in _PROTOCOLS:
        return f"protocol {protocol!r} has no array-compiled core"
    if config.hold_until_release:
        return "hold_until_release needs application-driven release calls"
    if delay is not None and not isinstance(
            delay, (ConstantDelay, UniformDelay, ExponentialDelay)):
        return f"unknown delay model {type(delay).__name__}"
    return None


class ArrayState:
    """All mutable simulation state of one fast-engine run.

    Scalar run state (clock, seq counter, counters) lives in the compiled
    engine's closure cells while running and is flushed back here by
    ``Engine.sync()``; the columns below are shared by reference and always
    current.
    """

    def __init__(self, protocol: str, n: int, config: ProtocolConfig,
                 seed: int = 0,
                 delay: Optional[DelayModel] = None,
                 loss_rate: float = 0.0,
                 dup_rate: float = 0.0,
                 digest: bool = False) -> None:
        self.protocol = protocol
        self.n = n
        self.config = config
        self.rng = random.Random(seed)
        self.delay = delay if delay is not None else ConstantDelay(1.0)
        self.loss_rate = loss_rate
        self.dup_rate = dup_rate
        self.digest = digest

        # -- boolean flag columns ------------------------------------------
        self.has_token = bytearray(n)
        self.has_token[0] = 1  # initial holder, as in the object cores
        self.ready = bytearray(n)
        self.outstanding = bytearray(n)
        self.parked = bytearray(n)
        self.serving = bytearray(n)
        self.demand_seen = bytearray(n)
        self.gimme_inflight = bytearray(n)

        # -- integer register columns --------------------------------------
        # Plain lists, deliberately: ``array('q')`` halves the memory but
        # boxes a fresh int object on *every read* (PyLong_FromLongLong),
        # and the engine reads registers far more often than it stores
        # them.  Lists return the already-boxed object.
        self.clock: List[int] = [0] * n
        self.round_no: List[int] = [0] * n
        self.req_seq: List[int] = [0] * n
        self.last_visit: List[int] = [-1] * n
        self.last_visit[0] = 0
        self.granted_seq: List[int] = [-1] * n
        self.fwd_gen: List[int] = [0] * n             # forward-timer epoch
        self.waiting: List[int] = [-1] * n            # Cluster._waiting mirror
        self.lent_to: List[int] = [-1] * n            # -1 = no loan out

        # -- per-node tuple-valued structures ------------------------------
        # Served carry (rotation GC), always one of the engine's interned
        # canonical tuples; the {z: seq} lookup views and the merge memo
        # mirroring TokenMachine._merge_served/_served_lookup live in
        # process-level caches in :mod:`repro.fastsim.compiled`.
        self.carry: List[Tuple[Tuple[int, int], ...]] = [()] * n
        # FIFO trap queue as an insertion-ordered dict:
        # requester -> mutable [requester, req_seq, set_clock, trail] slot.
        # Dict insertion order *is* FIFO order; superseding updates the slot
        # in place, which preserves the queue position exactly like
        # TrapStore's in-place rewrite.  Keying by requester makes
        # supersede, relay-removal, and served-GC probes O(1) instead of
        # queue scans.
        self.traps: List[dict] = [{} for _ in range(n)]
        self.trap_latest: List[dict] = [{} for _ in range(n)]
        # Conservative lower bound on min(set_clock) over each trap queue;
        # lets expiry GC skip queues that cannot contain a stale entry.
        # Only ever too low (false trigger = harmless rescan), never too
        # high, so the GC outcome is identical to a full scan.
        self.trap_minclk: List[float] = [float("inf")] * n
        # 1 after a served-GC probe found nothing; cleared whenever the
        # carry gains entries or a new trap is inserted (the only events
        # that can create a served hit), so a set flag proves the probe
        # loop would find nothing again.
        self.gc_clean = bytearray(n)
        # forward-throttle holdback queue of raw gimme tuples.
        self.gimme_queue: List[list] = [[] for _ in range(n)]
        # (lender, carry-at-grant) while serving a loaned token.
        self.loan_pending: List[Optional[tuple]] = [None] * n

        # -- run log / aggregates (written back by Engine.sync) ------------
        # applog entries: (kind, node, req_seq, time); kind 0=request 1=grant.
        self.applog: List[Tuple[int, int, int, float]] = []
        self.now = 0.0
        self.seq = 0
        self.executed_total = 0
        self.sent_total = 0
        self.dropped_count = 0
        self.sent_by_type = {"TokenMsg": 0, "GimmeMsg": 0, "LoanMsg": 0,
                             "LoanReturnMsg": 0}
        self.grants_count = 0
        self.rounds_seen = 0
        self.send_crc = 0

        self.is_bs = protocol == "binary_search"
        self.rotation = config.trap_gc == GC_ROTATION
        self.inverse = config.trap_gc == GC_INVERSE
        self.use_dq = type(self.delay) is ConstantDelay
