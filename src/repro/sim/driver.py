"""The node driver: runs one sans-IO protocol core on a clock and a network.

One driver serves the discrete-event simulation and the asyncio runtime.
Its clock is a :class:`~repro.sim.kernel.Simulator` or an event loop
(``time()`` and ``call_later(delay, fn, *args)``), its network a
:class:`~repro.sim.network.Network` on the same clock.  The driver is the
core's port (:class:`~repro.core.effects.Port`): sends go to the network,
timers are ``call_later`` handles, and application events are fanned out
to subscriber callbacks — the clusters use these for metrics and grants.
A message is handled in the callback that delivers it: no queue and no
task stand between the network and the core.

The clock sets two things, and nothing else does:

- **time units.**  Core timers count message delays.  On the simulator
  they run as virtual units; on an event loop the driver scales them by
  the network's delay (floored at 1e-6 s).
- **exception policy.**  On the simulator an exception out of a handler
  (a sanitizer violation, a core bug) raises at the failing event, out
  of :meth:`Simulator.run`.  An event loop would only log it, so there the
  driver keeps it for :meth:`NodeDriver.failure` and the node handles no
  further message or timer.

The seams, the same on every clock:

- an optional :class:`~repro.aio.reliability.ReliableChannel` frames every
  expensive outgoing message and dedups inbound frames, so the core sees
  exactly the at-most-once stream it was designed for;
- ``on_control`` interceptors see every payload before the core does and
  may consume it (supervisor heartbeats, an injected token loss);
- ``on_send_msg`` hooks observe every **logical** protocol send (once per
  payload, never per retransmission) and ``on_handled`` hooks fire after a
  delivered payload has been fully processed — together they give the
  invariant oracle the quiescent points it needs.

When a :class:`~repro.lint.sanitizer.ClusterSanitizer` is attached (the
clusters wire one unless built with ``sanitize=False``), the driver reports
every handled event to it so cluster-level safety invariants are audited
as the run goes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.base import ProtocolCore
from repro.core.effects import Port
from repro.core.messages import HeartbeatMsg
from repro.errors import SimulationError
from repro.lint.sanitizer import ClusterSanitizer
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["NodeDriver"]


class NodeDriver(Port):
    """Runs one protocol core on a clock, as the core's port.

    Sends, timers and cancels act at once, straight into the network or
    the clock, until the handler delivers an application event.  The
    delivery waits for the handler to return: a subscriber may call back
    into the driver (a grant answered by a release), and that must not run
    the core inside its own handler.  Every call after a delivery waits
    behind it, in order, so nothing the handler emits overtakes what it
    delivered.  Acting and waiting together keep every call in the order
    the handler made it.
    """

    def __init__(
        self,
        clock: Any,
        network: Network,
        core: ProtocolCore,
        sanitizer: Optional[ClusterSanitizer] = None,
        channel: Any = None,
    ) -> None:
        self.clock = clock
        self.network = network
        self.core = core
        self.node_id = core.node_id
        self.sanitizer = sanitizer
        self.channel = channel
        self.crashed = False
        #: ``hook(src, msg) -> bool`` — True consumes the message before
        #: it reaches the core (supervisor heartbeats, an injected loss).
        self.on_control: List[Callable[[int, object], bool]] = []
        #: ``hook(src, dst, msg)`` — every logical protocol send.
        self.on_send_msg: List[Callable[[int, int, object], None]] = []
        #: ``hook(src, msg)`` — a delivered payload was fully processed.
        self.on_handled: List[Callable[[int, object], None]] = []
        self._time = clock.time
        self._call_later = clock.call_later
        self._on_loop = not isinstance(clock, Simulator)
        self._failure: Optional[Exception] = None
        self._timers: Dict[Hashable, Any] = {}
        self._subscribers: List[Callable[[int, str, tuple, float], None]] = []
        #: Calls waiting for the running handler to return, or None.
        self._held: Optional[List[Tuple[Callable, tuple]]] = None
        core.out = self
        if sanitizer is not None:
            sanitizer.register(core)
        network.attach(self.node_id, self._on_message)

    def subscribe(self, callback: Callable[[int, str, tuple, float], None]) -> None:
        """Register ``callback(node_id, kind, payload, now)`` for application
        events delivered by the core."""
        self._subscribers.append(callback)

    # -- lifecycle and application entry points ------------------------------------

    def start(self) -> None:
        """Run the core's start handler (call once, after wiring)."""
        self._apply("on_start", None, self.core.on_start, self._time())

    def stop(self) -> None:
        """Detach from the network and cancel all timers and any
        retransmissions."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self.channel is not None:
            self.channel.stop()
        self.network.detach(self.node_id)

    def request(self) -> None:
        """The application at this node asks for the token."""
        if self.crashed:
            return
        self._apply("on_request", None, self.core.on_request, self._time())

    def release(self) -> None:
        """The application releases a held grant."""
        if self.crashed:
            return
        self._apply("on_release", None, self.core.on_release, self._time())

    def failure(self) -> Optional[Exception]:
        """The exception that killed this node on an event loop (a
        sanitizer violation, a core bug), or None while it is alive.  A
        stopped node keeps its failure."""
        return self._failure

    # -- failure injection ---------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop this node: cancel timers, drop future deliveries."""
        self.crashed = True
        self.network.crash(self.node_id)
        if self.sanitizer is not None:
            self.sanitizer.mark_crashed(self.node_id)
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    def recover(self) -> None:
        """Clear the crash flag (the core keeps its pre-crash state unless
        the caller replaces it)."""
        self.crashed = False
        self.network.recover(self.node_id)
        if self.sanitizer is not None:
            self.sanitizer.mark_recovered(self.node_id)

    # -- events in -----------------------------------------------------------------

    def _on_message(self, src: int, msg: object) -> None:
        """The network's delivery callback."""
        if self.crashed or self._failure is not None:
            return
        try:
            if self.channel is not None:
                msg = self.channel.on_frame(src, msg)
                if msg is None:
                    return  # ack, or a deduplicated retransmission
            for hook in self.on_control:
                if hook(src, msg):
                    return
            # Runtime-internal traffic must never reach the core: cores
            # raise on unknown message types by design.
            if type(msg) is HeartbeatMsg:
                return
            self._apply("on_message", msg, self.core.on_message, src, msg,
                        self._time())
            for handled in self.on_handled:
                handled(src, msg)
        except Exception as exc:
            if not self._on_loop:
                raise
            self._failure = exc

    def _on_timer(self, key: Hashable) -> None:
        self._timers.pop(key, None)
        if self.crashed or self._failure is not None:
            return
        try:
            self._apply("on_timer", key, self.core.on_timer, key, self._time())
        except Exception as exc:
            if not self._on_loop:
                raise
            self._failure = exc

    # -- the port ------------------------------------------------------------------

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

    # -- one handled event ---------------------------------------------------------

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
            self.sanitizer.after_apply(self.core, origin, payload, self._time())

    def _send(self, dst: int, msg: object) -> None:
        for hook in self.on_send_msg:
            hook(self.node_id, dst, msg)
        if self.channel is not None:
            self.channel.send(dst, msg)
        else:
            self.network.send(self.node_id, dst, msg)

    def _arm(self, key: Hashable, delay: float) -> None:
        previous = self._timers.pop(key, None)
        if previous is not None:
            previous.cancel()
        if self._on_loop:
            delay *= max(self.network.delay, 1e-6)
        self._timers[key] = self._call_later(delay, self._on_timer, key)

    def _disarm(self, key: Hashable) -> None:
        handle = self._timers.pop(key, None)
        if handle is not None:
            handle.cancel()

    def _publish(self, kind: str, payload: Tuple) -> None:
        now = self._time()
        for callback in self._subscribers:
            callback(self.node_id, kind, payload, now)
