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
(:func:`recorded`).  Both drivers, the discrete-event one in
:mod:`repro.sim.driver` and the asyncio one in :mod:`repro.aio.driver`,
are :class:`DriverPort` subclasses: one emission rule, written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["CancelTimer", "Deliver", "DriverPort", "Effect", "Port",
           "RecordingPort", "Send", "SetTimer", "recorded"]


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


# -- the port both drivers are ----------------------------------------------


class DriverPort(Port):
    """A driver as its core's port: one emission rule for every runtime.

    Sends, timers and cancels act at once, straight into the kernel or the
    transport, until the handler delivers an application event.  The
    delivery waits for the handler to return: a subscriber may call back
    into the driver (a grant answered by a release), and that must not run
    the core inside its own handler.  Every call after a delivery waits
    behind it, in order, so nothing the handler emits overtakes what it
    delivered.  Acting and waiting together keep every call in the order
    the handler made it.

    :meth:`_apply` runs one handler and then what waited.  A subclass
    supplies the runtime: ``_send(dst, msg)``, ``_schedule(key, delay)``
    (a timer handle with ``cancel()`` that calls back into the driver)
    and ``_now()``.
    """

    def __init__(self, core: Any, sanitizer: Any = None) -> None:
        self.core = core
        self.node_id = core.node_id
        self.sanitizer = sanitizer
        self._timers: Dict[Hashable, Any] = {}
        self._subscribers: List[Callable[[int, str, tuple, float], None]] = []
        #: Calls waiting for the running handler to return, or None.
        self._held: Optional[List[Tuple[Callable, tuple]]] = None
        core.out = self
        if sanitizer is not None:
            sanitizer.register(core)

    def subscribe(self, callback: Callable[[int, str, tuple, float], None]) -> None:
        """Register ``callback(node_id, kind, payload, now)`` for application
        events delivered by the core."""
        self._subscribers.append(callback)

    # -- the port -------------------------------------------------------------

    def send(self, dst: int, msg: Any) -> None:
        held = self._held
        if held is None:
            self._send(dst, msg)
        else:
            held.append((self._send, (dst, msg)))

    def timer(self, key: Hashable, delay: float) -> None:
        held = self._held
        if held is None:
            self._arm(key, delay)
        else:
            held.append((self._arm, (key, delay)))

    def cancel(self, key: Hashable) -> None:
        held = self._held
        if held is None:
            self._disarm(key)
        else:
            held.append((self._disarm, (key,)))

    def deliver(self, kind: str, payload: Tuple = ()) -> None:
        if self._held is None:
            self._held = []
        self._held.append((self._publish, (kind, payload)))

    # -- one handled event ----------------------------------------------------

    def _apply(self, origin: str, payload: object,
               handler: Callable[..., None], *args: Any) -> None:
        """Run the core's ``handler(*args)``, then the calls that waited for
        it, then the sanitizer's audit of the event (``origin`` names the
        handler, ``payload`` is the message or timer key)."""
        try:
            returned = handler(*args)
        finally:
            held, self._held = self._held, None
        if returned is not None:
            raise SimulationError(
                f"{self.core.protocol_name} {origin} returned {returned!r}: "
                f"a core acts through its port and returns nothing")
        if held is not None:
            for call, call_args in held:
                call(*call_args)
        if self.sanitizer is not None:
            self.sanitizer.after_apply(self.core, origin, payload, self._now())

    def _arm(self, key: Hashable, delay: float) -> None:
        previous = self._timers.pop(key, None)
        if previous is not None:
            previous.cancel()
        self._timers[key] = self._schedule(key, delay)

    def _disarm(self, key: Hashable) -> None:
        handle = self._timers.pop(key, None)
        if handle is not None:
            handle.cancel()

    def _publish(self, kind: str, payload: Tuple) -> None:
        now = self._now()
        for callback in self._subscribers:
            callback(self.node_id, kind, payload, now)
