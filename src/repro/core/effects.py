"""How a sans-IO protocol core acts on the world: the port it calls.

Protocol cores (:mod:`repro.core.base`) are pure state machines that never
touch a clock, a socket or a scheduler.  A handler acts through the core's
port, ``core.out``, with four calls:

- ``out.send(dst, msg)`` — send ``msg`` to node ``dst``;
- ``out.timer(key, delay)`` — (re)arm timer ``key`` to fire ``delay``
  message-delay units from now; re-arming replaces the deadline;
- ``out.cancel(key)`` — disarm timer ``key`` (a no-op when not armed);
- ``out.deliver(kind, payload)`` — hand an application event (a grant, a
  token visit) to whoever drives the core.

:class:`RecordingPort`, every core's default, keeps each call as an effect
record — :class:`Send`, :class:`SetTimer`, :class:`CancelTimer`,
:class:`Deliver` — which is how sans-IO tests read a handler
(:func:`recorded`).  The one driver, :class:`repro.sim.driver.NodeDriver`,
is the port of every core it runs, on the simulator and on an event loop
alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Tuple

__all__ = ["CancelTimer", "Deliver", "Effect", "Port", "RecordingPort",
           "Send", "SetTimer", "recorded"]


class Port:
    """The four calls a core acts through."""

    def send(self, dst: int, msg: Any) -> None:
        """Send ``msg`` to node ``dst``."""
        raise NotImplementedError

    def timer(self, key: Hashable, delay: float) -> None:
        """(Re)arm the timer ``key`` to fire ``delay`` from now."""
        raise NotImplementedError

    def cancel(self, key: Hashable) -> None:
        """Disarm the timer ``key`` (no-op when not armed)."""
        raise NotImplementedError

    def deliver(self, kind: str, payload: Tuple = ()) -> None:
        """Hand the application event ``kind`` to the core's driver."""
        raise NotImplementedError


# -- the records a recording port keeps ---------------------------------------


class Effect:
    """Marker base class for effect records."""

    __slots__ = ()


@dataclass(frozen=True)
class Send(Effect):
    """Send ``msg`` to node ``dst``."""

    dst: int
    msg: Any


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


@dataclass(frozen=True)
class Deliver(Effect):
    """Deliver an application-level event (e.g. token granted, broadcast
    delivered) to whoever is driving the core."""

    kind: str
    payload: Tuple = ()


class RecordingPort(Port):
    """Keeps every call, in order, as an effect record in :attr:`effects`.
    The port of a core no driver has taken."""

    def __init__(self) -> None:
        self.effects: List[Effect] = []

    def send(self, dst: int, msg: Any) -> None:
        self.effects.append(Send(dst, msg))

    def timer(self, key: Hashable, delay: float) -> None:
        self.effects.append(SetTimer(key, delay))

    def cancel(self, key: Hashable) -> None:
        self.effects.append(CancelTimer(key))

    def deliver(self, kind: str, payload: Tuple = ()) -> None:
        self.effects.append(Deliver(kind, payload))

    def take(self) -> List[Effect]:
        """The records kept so far; the port starts over empty."""
        effects, self.effects = self.effects, []
        return effects


def recorded(handler: Callable[..., None], *args: Any) -> List[Effect]:
    """Call ``handler`` — a bound handler of a core whose port records —
    and return the effects that one call emitted, in order."""
    port = handler.__self__.out
    port.take()
    handler(*args)
    return port.take()
