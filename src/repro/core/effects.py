"""Effects emitted by sans-IO protocol cores.

Protocol cores (:mod:`repro.core.base`) are pure state machines: every
handler returns a list of effects instead of performing IO.  A driver — the
discrete-event one in :mod:`repro.sim.driver` or the asyncio one in
:mod:`repro.aio` — interprets them.  This keeps protocol logic identical
across runtimes and directly unit-testable.  The three effects
drivers handle most (``Send``, ``SetTimer``, ``Deliver``) take
:func:`~repro.core.records.fast_init`'s constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Tuple

from repro.core.records import fast_init

__all__ = ["Effect", "Send", "SetTimer", "CancelTimer", "Deliver"]


class Effect:
    """Marker base class for effects."""

    __slots__ = ()


@fast_init
@dataclass(frozen=True)
class Send(Effect):
    """Send ``msg`` to node ``dst``."""

    dst: int
    msg: Any


@fast_init
@dataclass(frozen=True)
class SetTimer(Effect):
    """(Re)arm the timer ``key`` to fire ``delay`` from now.

    Re-arming an already-armed key replaces the previous deadline.
    """

    key: Hashable
    delay: float


@dataclass(frozen=True)
class CancelTimer(Effect):
    """Disarm the timer ``key`` (no-op when not armed)."""

    key: Hashable


@fast_init
@dataclass(frozen=True)
class Deliver(Effect):
    """Deliver an application-level event (e.g. token granted, broadcast
    delivered) to whoever is driving the core."""

    kind: str
    payload: Tuple = ()
