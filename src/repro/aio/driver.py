"""Asyncio driver for sans-IO protocol cores.

Runs one core on the event loop: the transport calls the driver's
handler with each delivered message, as the simulator's network does, and
the driver is the core's port (:class:`~repro.core.effects.DriverPort`,
the same emission rule as the discrete-event driver): sends go to the
channel or the transport, timers are ``loop.call_later`` handles, and
application events are fanned out to subscribers — so every core runs
unchanged in real time.  A message is handled in the
callback that delivers it: no queue and no task stand between the socket
(or the in-memory delay) and the core.

An exception out of a handler (a sanitizer violation, a core bug) kills
the node, not whoever delivered the message: the driver records it,
:meth:`AioNodeDriver.failure` reports it, and the node handles no further
message or timer.

The driver is also the seam where the fault-tolerant runtime plugs in:

- an optional :class:`~repro.aio.reliability.ReliableChannel` frames every
  expensive outgoing message and dedups inbound frames, so the core sees
  exactly the at-most-once stream it was designed for;
- ``on_control`` interceptors consume runtime-internal messages (e.g.
  supervisor heartbeats) before they can reach — and confuse — the core;
- ``on_send_msg`` hooks observe every **logical** protocol send (once per
  payload, never per retransmission) and ``on_handled`` hooks fire after a
  delivered payload has been fully processed — together they give the
  invariant oracle the quiescent points it needs.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Hashable, List, Optional

from repro.aio.reliability import ReliableChannel
from repro.aio.transport import AioTransport
from repro.core.base import ProtocolCore
from repro.core.effects import DriverPort
from repro.core.messages import HeartbeatMsg
from repro.lint.sanitizer import ClusterSanitizer

__all__ = ["AioNodeDriver"]


class AioNodeDriver(DriverPort):
    """Runs one protocol core on the asyncio event loop.

    An attached :class:`~repro.lint.sanitizer.ClusterSanitizer` (shared
    across the cluster's drivers) audits cluster safety invariants after
    every handled event; see ``REPRO_SANITIZE``.
    """

    def __init__(
        self,
        transport: AioTransport,
        core: ProtocolCore,
        sanitizer: Optional[ClusterSanitizer] = None,
        channel: Optional[ReliableChannel] = None,
    ) -> None:
        super().__init__(core, sanitizer)
        self.transport = transport
        self.channel = channel
        self.crashed = False
        #: ``hook(src, msg) -> bool`` — True consumes the message before
        #: it reaches the core (supervisor heartbeats, runtime control).
        self.on_control: List[Callable[[int, object], bool]] = []
        #: ``hook(src, dst, msg)`` — every logical protocol send.
        self.on_send_msg: List[Callable[[int, int, object], None]] = []
        #: ``hook(src, msg)`` — a delivered payload was fully processed.
        self.on_handled: List[Callable[[int, object], None]] = []
        self._failure: Optional[Exception] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        transport.attach(self.node_id, self._on_message)

    async def start(self) -> None:
        """Run the core's start handler."""
        self._loop = asyncio.get_running_loop()
        self._apply("on_start", None, self.core.on_start, self._now())

    async def stop(self) -> None:
        """Detach from the transport and cancel all timers and any
        retransmissions."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self.channel is not None:
            self.channel.stop()
        self.transport.detach(self.node_id)

    def failure(self) -> Optional[Exception]:
        """The exception that killed this node (a sanitizer violation, a
        core bug), or None while it is alive.  A stopped node keeps its
        failure."""
        return self._failure

    def request(self) -> None:
        """The application at this node asks for the token."""
        if self.crashed:
            return
        self._apply("on_request", None, self.core.on_request, self._now())

    def release(self) -> None:
        """The application releases a held grant."""
        if self.crashed:
            return
        self._apply("on_release", None, self.core.on_release, self._now())

    # -- internals -----------------------------------------------------------

    def _now(self) -> float:
        loop = self._loop or asyncio.get_event_loop()
        return loop.time()

    def _on_message(self, src: int, raw: object) -> None:
        """The transport's delivery callback."""
        if self._failure is not None:
            return
        try:
            msg = raw
            if self.channel is not None:
                msg = self.channel.on_frame(src, raw)
                if msg is None:
                    return  # ack, or a deduplicated retransmission
            if self._consume_control(src, msg):
                return
            self._apply("on_message", msg, self.core.on_message, src, msg,
                        self._now())
            for hook in self.on_handled:
                hook(src, msg)
        except Exception as exc:
            self._failure = exc

    def _consume_control(self, src: int, msg: object) -> bool:
        for hook in self.on_control:
            if hook(src, msg):
                return True
        # Runtime-internal traffic must never reach the core: cores raise
        # on unknown message types by design.
        return type(msg) is HeartbeatMsg

    def _on_timer(self, key: Hashable) -> None:
        self._timers.pop(key, None)
        if self._failure is not None:
            return
        try:
            self._apply("on_timer", key, self.core.on_timer, key, self._now())
        except Exception as exc:
            self._failure = exc

    def _send(self, dst: int, msg: object) -> None:
        for hook in self.on_send_msg:
            hook(self.node_id, dst, msg)
        if self.channel is not None:
            self.channel.send(dst, msg)
        else:
            self.transport.send(self.node_id, dst, msg)

    def _schedule(self, key: Hashable, delay: float) -> asyncio.TimerHandle:
        loop = self._loop or asyncio.get_event_loop()
        return loop.call_later(delay * self._timer_scale(), self._on_timer, key)

    def _timer_scale(self) -> float:
        """Core timers are expressed in message-delay units; scale them to
        the transport's real-time delay."""
        return max(self.transport.delay, 1e-6)
