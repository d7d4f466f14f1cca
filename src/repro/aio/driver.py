"""Asyncio driver for sans-IO protocol cores.

Runs one core as a coroutine: messages are awaited from the transport
inbox, timers are ``loop.call_later`` handles, and application events are
fanned out to subscribers — the same contract as the discrete-event driver,
so every core runs unchanged in real time.

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
from typing import Callable, Dict, Hashable, List, Optional

from repro.aio.reliability import ReliableChannel
from repro.aio.transport import AioTransport
from repro.core.base import ProtocolCore
from repro.core.effects import CancelTimer, Deliver, Effect, Send, SetTimer
from repro.core.messages import HeartbeatMsg
from repro.errors import SimulationError
from repro.lint.sanitizer import ClusterSanitizer

__all__ = ["AioNodeDriver"]


class AioNodeDriver:
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
        self.transport = transport
        self.core = core
        self.node_id = core.node_id
        self.sanitizer = sanitizer
        self.channel = channel
        self.crashed = False
        if sanitizer is not None:
            sanitizer.register(core)
        self._inbox = transport.attach(self.node_id)
        self._timers: Dict[Hashable, asyncio.TimerHandle] = {}
        self._subscribers: List[Callable[[int, str, tuple, float], None]] = []
        #: ``hook(src, msg) -> bool`` — True consumes the message before
        #: it reaches the core (supervisor heartbeats, runtime control).
        self.on_control: List[Callable[[int, object], bool]] = []
        #: ``hook(src, dst, msg)`` — every logical protocol send.
        self.on_send_msg: List[Callable[[int, int, object], None]] = []
        #: ``hook(src, msg)`` — a delivered payload was fully processed.
        self.on_handled: List[Callable[[int, object], None]] = []
        self._task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def subscribe(self, callback: Callable[[int, str, tuple, float], None]) -> None:
        """Register ``callback(node_id, kind, payload, now)`` for
        application events."""
        self._subscribers.append(callback)

    async def start(self) -> None:
        """Run the core's start handler and begin consuming the inbox."""
        self._loop = asyncio.get_running_loop()
        self._apply(self.core.on_start(self._now()), "on_start")
        self._task = asyncio.create_task(self._run(), name=f"node-{self.node_id}")

    async def stop(self) -> None:
        """Cancel the consumer task, all timers, and any retransmissions."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self.channel is not None:
            self.channel.stop()
        if self._task is not None and self.failure() is None:
            # (A task that already died stays put: awaiting it would
            # re-raise here, and failure() is how it gets reported.)
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self.transport.detach(self.node_id)

    def failure(self) -> Optional[BaseException]:
        """The exception that killed this node's consumer task (a
        sanitizer violation, a core bug) — None while the task runs and
        once a live task has been stopped."""
        task = self._task
        if task is None or not task.done() or task.cancelled():
            return None
        return task.exception()

    def request(self) -> None:
        """The application at this node asks for the token."""
        if self.crashed:
            return
        self._apply(self.core.on_request(self._now()), "on_request")

    def release(self) -> None:
        """The application releases a held grant."""
        if self.crashed:
            return
        self._apply(self.core.on_release(self._now()), "on_release")

    # -- internals -----------------------------------------------------------

    def _now(self) -> float:
        loop = self._loop or asyncio.get_event_loop()
        return loop.time()

    async def _run(self) -> None:
        while True:
            src, raw = await self._inbox.get()
            msg = raw
            if self.channel is not None:
                msg = self.channel.on_frame(src, raw)
                if msg is None:
                    continue  # ack, or a deduplicated retransmission
            if self._consume_control(src, msg):
                continue
            self._apply(self.core.on_message(src, msg, self._now()),
                        "on_message", msg)
            for hook in self.on_handled:
                hook(src, msg)

    def _consume_control(self, src: int, msg: object) -> bool:
        for hook in self.on_control:
            if hook(src, msg):
                return True
        # Runtime-internal traffic must never reach the core: cores raise
        # on unknown message types by design.
        return type(msg) is HeartbeatMsg

    def _on_timer(self, key: Hashable) -> None:
        self._timers.pop(key, None)
        self._apply(self.core.on_timer(key, self._now()), "on_timer", key)

    def _send(self, dst: int, msg: object) -> None:
        for hook in self.on_send_msg:
            hook(self.node_id, dst, msg)
        if self.channel is not None:
            self.channel.send(dst, msg)
        else:
            self.transport.send(self.node_id, dst, msg)

    def _apply(
        self, effects: List[Effect], origin: str = "<direct>", payload: object = None
    ) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self._send(effect.dst, effect.msg)
            elif isinstance(effect, SetTimer):
                previous = self._timers.pop(effect.key, None)
                if previous is not None:
                    previous.cancel()
                loop = self._loop or asyncio.get_event_loop()
                self._timers[effect.key] = loop.call_later(
                    effect.delay * self._timer_scale(), self._on_timer, effect.key
                )
            elif isinstance(effect, CancelTimer):
                handle = self._timers.pop(effect.key, None)
                if handle is not None:
                    handle.cancel()
            elif isinstance(effect, Deliver):
                for callback in self._subscribers:
                    callback(self.node_id, effect.kind, effect.payload, self._now())
            else:
                raise SimulationError(f"unknown effect {effect!r}")
        if self.sanitizer is not None:
            self.sanitizer.after_apply(self.core, origin, payload, self._now())

    def _timer_scale(self) -> float:
        """Core timers are expressed in message-delay units; scale them to
        the transport's real-time delay."""
        return max(self.transport.delay, 1e-6)
