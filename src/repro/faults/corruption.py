"""Arbitrary-state corruption: the fault model of self-stabilization.

Every other fault the repo injects (crash, loss, duplication, partition,
token loss) perturbs a run while keeping each surviving node's *local*
state legal.  Self-stabilization (Dijkstra; Herman's safe-register ring,
arXiv:1101.1680) starts from the opposite assumption: a transient fault
may leave any node in **any** state — two tokens, zero tokens, a hop
clock from the future, a trap queue full of garbage.  The protocol must
converge back to the single-token legitimate states regardless.

:func:`corrupt_core` is that transient fault, reified: a deterministic,
field-by-field perturbation of one node's in-memory protocol state,
parameterized by a corruption *kind* and an integer *argument* so the
same ``(kind, arg)`` pair always produces the same illegal state — fuzz
cases carrying ``corrupt`` faults replay bit-for-bit.  It mutates the
core object directly (no messages, no timers): exactly what a stray
cosmic ray or a restored-from-stale-snapshot process would do.

The injector is deliberately *protocol-agnostic*: it targets the
possession record and caches that the
:class:`~repro.core.machine.TokenMachine` declares for every row of the
protocol table, so the same schedule can corrupt any registered core —
including non-stabilizing ones, for demonstrating *why* the stabilizing
variant exists.  Only the gimme queue belongs to a part
(:class:`~repro.core.parts.DelegatedSearch`) and is skipped on rows that
do not stack it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.messages import GimmeMsg
from repro.errors import ConfigError

__all__ = ["CORRUPTION_KINDS", "corrupt_core"]

#: Every corruption the injector knows.  The fuzz-case schema validates
#: ``corrupt`` faults against this tuple; extend it only with kinds the
#: stabilizing core provably converges from.
CORRUPTION_KINDS = (
    "duplicate_token",   # conjure a token at the victim (k tokens > 1)
    "delete_token",      # erase the victim's token/loan lineage (0 tokens)
    "scramble_clock",    # perturb hop clock and last-visit stamp
    "scramble_epoch",    # shift the victim's epoch fence up or down
    "scramble_stamp",    # corrupt round counter and grant sequencing
    "corrupt_queue",     # garbage the trap store and gimme queue
    "corrupt_served",    # garbage the served-map piggyback carry
)

_KNUTH = 2654435761  # Knuth's multiplicative-hash constant


def _mix(arg: int, salt: int) -> int:
    """Deterministic sub-draw: spread ``arg`` into independent values."""
    return ((arg + salt) * _KNUTH) % (1 << 32)


def corrupt_core(core, what: str, arg: int,
                 n: Optional[int] = None) -> List[str]:
    """Apply corruption ``what`` (seeded by ``arg``) to one node's core.

    Returns a list of human-readable mutation descriptions for tracing.
    Raises :class:`ConfigError` for unknown kinds — callers validate
    against :data:`CORRUPTION_KINDS` first, so hitting this is a schema
    bug.
    """
    if what not in CORRUPTION_KINDS:
        raise ConfigError(f"unknown corruption kind {what!r}; "
                          f"known kinds: {CORRUPTION_KINDS}")
    ring = n if n is not None else max(core.n, 1)
    mutations: List[str] = []

    def note(field: str, old, new) -> None:
        mutations.append(f"{field}: {old!r} -> {new!r}")

    if what == "duplicate_token":
        note("has_token", core.has_token, True)
        core.has_token = True
        core.lent_to = None
        # A conjured token's clock drifts a little from the live one so
        # the duplicate is not a perfect clone (the harder case).
        skew = _mix(arg, 1) % (ring + 1)
        if skew:
            note("clock", core.clock, core.clock + skew)
            core.clock += skew
            core.last_visit = core.clock

    elif what == "delete_token":
        note("has_token", core.has_token, False)
        core.has_token = False
        core.lent_to = None
        core._loan_pending = None
        core._serving = False
        core._parked = False

    elif what == "scramble_clock":
        delta = _mix(arg, 2) % (4 * ring + 1) - 2 * ring
        note("clock", core.clock, max(0, core.clock + delta))
        core.clock = max(0, core.clock + delta)
        delta = _mix(arg, 3) % (4 * ring + 1) - 2 * ring
        note("last_visit", core.last_visit, max(-1, core.last_visit + delta))
        core.last_visit = max(-1, core.last_visit + delta)

    elif what == "scramble_epoch":
        delta = _mix(arg, 4) % (8 * ring + 1) - 4 * ring
        new_epoch = max(0, core.epoch + delta)
        note("epoch", core.epoch, new_epoch)
        core.epoch = new_epoch

    elif what == "scramble_stamp":
        delta = _mix(arg, 5) % (2 * ring + 1) - ring
        note("round_no", core.round_no, max(0, core.round_no + delta))
        core.round_no = max(0, core.round_no + delta)
        # granted_seq racing ahead of req_seq is the illegal grant
        # ordering the sanitizer would flag at rest.
        bump = _mix(arg, 6) % 3 + 1
        note("granted_seq", core.granted_seq, core.req_seq + bump)
        core.granted_seq = core.req_seq + bump
        core.outstanding = bool(_mix(arg, 7) & 1)

    elif what == "corrupt_queue":
        phantom = _mix(arg, 8) % ring
        bogus_seq = 1_000 + _mix(arg, 9) % 100
        core.traps.add(phantom, bogus_seq, -(_mix(arg, 10) % 50) - 1)
        note("traps", "…", f"+phantom trap z={phantom} seq={bogus_seq}")
        if hasattr(core, "_gimme_queue"):
            ghost = _mix(arg, 11) % ring
            core._gimme_queue.append(GimmeMsg(
                requester=ghost, req_seq=900 + _mix(arg, 12) % 100,
                span=ring, visit_stamp=_mix(arg, 13) % (4 * ring),
            ))
            note("_gimme_queue", "…", f"+ghost gimme from {ghost}")
            core._gimme_inflight = bool(_mix(arg, 14) & 1)

    elif what == "corrupt_served":
        z = _mix(arg, 15) % ring
        bogus = ((z, 500 + _mix(arg, 16) % 100),)
        note("_served_carry", core._served_carry, bogus)
        core._served_carry = bogus

    return mutations
