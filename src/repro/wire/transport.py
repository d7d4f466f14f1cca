"""Real asyncio TCP transport behind the :class:`AioTransport` interface.

:class:`WireTransport` keeps the exact contract every runtime layer is
built against — ``attach``/``detach``, ``send``, crash/partition fault
injection, the ``on_send``/``on_deliver``/``on_drop`` hook surface — but
moves the data path onto real loopback sockets:

- every attached node gets its own listening TCP server (its "address" is
  a real ``(host, port)`` endpoint, allocated by the kernel); an inbound
  connection is an ``asyncio.Protocol`` whose ``data_received`` cuts the
  bytes into frames and hands each one to the inherited delivery path,
  and so to the node's handler, in the same callback — socket bytes,
  frame, ARQ and core with no task or queue in between;
- outbound traffic to one destination rides **one multiplexed TCP
  connection** shared by every local sender (frames carry their logical
  ``src``/``dst``, so one socket carries all lanes to that peer);
- each link has a **bounded send queue**: a connected socket with an
  empty write buffer takes frames at once (all that are due together as
  one ``write()``); while the link dials, or ``drain()``s a socket the
  kernel has pushed back on, frames queue, and a full queue refuses the
  send (``on_drop`` reason ``"backpressure"``) instead of buffering
  without bound;
- a broken or unreachable connection is redialed with **exponential
  backoff plus seeded jitter**; frames enqueued meanwhile wait, frames
  half-written into the dead socket are genuinely lost on the wire.

Fault injection is inherited from :class:`AioTransport` and applied at
the socket boundary: a lost or partition-dropped message never reaches a
socket, a parked expensive message is written the moment the link heals,
and a crashed destination discards frames after they cross the wire —
the same observable semantics the in-memory transport gives the ARQ,
supervision, and oracle layers, which therefore attach unchanged.

The artificial ``delay`` is still honoured (it is what scales protocol
timers; see ``AioNodeDriver._timer_scale``): a sent message waits in the
transport's **delay line** — one FIFO for all links, since a constant
delay makes send order due order, woken by one kernel timer fd — and is
handed to its link no earlier than ``delay`` seconds after ``send``,
then crosses the real socket.  The timer fd is what makes a hop cost one
delay and not 1.8: see :class:`_WakeTimer`.  With ``delay=0`` a message
is transmitted inline and the wire's own latency is all there is — but
timers then run at microsecond scale, so real deployments keep a small
artificial delay as the protocol's time base.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import functools
import os
import random
import sys
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.aio.transport import AioTransport, Handler
from repro.errors import CodecError, FrameError, WireError
from repro.metrics.counters import WireCounters
from repro.wire.codec import (
    MAX_FRAME,
    FrameReader,
    encode_frame,
    # Not called here: the ledger's tracer wraps ``read_frame`` as an
    # attribute of this module, by name (benchmarks/ledger/serve_child.py).
    read_frame,  # noqa: F401
)

__all__ = ["WireConfig", "WireTransport"]


class WireConfig:
    """Socket-layer knobs for :class:`WireTransport`."""

    __slots__ = ("host", "max_queue", "max_frame", "reconnect_base",
                 "reconnect_max", "jitter")

    def __init__(self, host: str = "127.0.0.1", max_queue: int = 1024,
                 max_frame: int = MAX_FRAME, reconnect_base: float = 0.02,
                 reconnect_max: float = 1.0, jitter: float = 0.5) -> None:
        if max_queue < 1:
            raise WireError(f"max_queue must be >= 1, got {max_queue}")
        if reconnect_base <= 0 or reconnect_max < reconnect_base:
            raise WireError(
                f"need 0 < reconnect_base <= reconnect_max, got "
                f"{reconnect_base}/{reconnect_max}")
        self.host = host
        self.max_queue = max_queue
        self.max_frame = max_frame
        self.reconnect_base = reconnect_base
        self.reconnect_max = reconnect_max
        self.jitter = jitter


# -- the delay line's wake-up source ---------------------------------------------


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", getattr(ctypes, "c_time_t", ctypes.c_long)),
                ("tv_nsec", ctypes.c_long)]


class _Itimerspec(ctypes.Structure):
    _fields_ = [("it_interval", _Timespec), ("it_value", _Timespec)]


@functools.lru_cache(maxsize=None)
def _timerfd_libc() -> Optional[ctypes.CDLL]:
    """libc with ``timerfd_create``/``timerfd_settime`` declared, or None
    where the platform has no timer fds."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.timerfd_create.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.timerfd_create.restype = ctypes.c_int
        libc.timerfd_settime.argtypes = [
            ctypes.c_int, ctypes.c_int,
            ctypes.POINTER(_Itimerspec), ctypes.POINTER(_Itimerspec)]
        libc.timerfd_settime.restype = ctypes.c_int
    except (OSError, AttributeError):
        return None
    return libc


def _timerfd_open() -> Optional[int]:
    """A new non-blocking ``CLOCK_MONOTONIC`` timer fd, or None when the
    platform (or the kernel, right now) will not give one."""
    libc = _timerfd_libc()
    if libc is None:
        return None
    fd: int = libc.timerfd_create(time.CLOCK_MONOTONIC,
                                  os.O_NONBLOCK | os.O_CLOEXEC)
    return fd if fd >= 0 else None


class _WakeTimer:
    """One re-armable one-shot wake-up for the delay line.

    ``loop.call_later`` cannot be it on Linux: ``epoll_wait`` takes whole
    milliseconds and the selector rounds every timeout **up**, again each
    time socket I/O wakes the loop, so a 1 ms timer fires 1.4-2 ms late.
    A timer fd is just another readable fd: the kernel makes it readable
    on the microsecond and epoll reports it at once.  Where there is no
    timer fd (kqueue and select loops, whose timeouts are not rounded)
    the wake-up falls back to ``loop.call_later``."""

    __slots__ = ("_loop", "_callback", "_fd", "_spec", "_handle")

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 callback: Callable[[], None]) -> None:
        self._loop = loop
        self._callback = callback
        self._fd = _timerfd_open()
        self._spec = _Itimerspec()
        self._handle: Optional[asyncio.TimerHandle] = None
        if self._fd is not None:
            loop.add_reader(self._fd, callback)

    def now(self) -> float:
        """The clock :meth:`arm` counts from."""
        return self._loop.time()

    def arm(self, after: float) -> None:
        """Fire the callback once, ``after`` seconds from now (replaces
        any earlier arming, and forgets an expiry not yet :meth:`rest`-ed)."""
        if self._fd is None:
            if self._handle is not None:
                self._handle.cancel()
            self._handle = self._loop.call_later(after, self._callback)
            return
        # An all-zero it_value would disarm the timer instead.
        nanos = max(int(after * 1e9), 1)
        value = self._spec.it_value
        value.tv_sec, value.tv_nsec = divmod(nanos, 1_000_000_000)
        libc = _timerfd_libc()
        if libc is None or libc.timerfd_settime(
                self._fd, 0, ctypes.byref(self._spec), None):
            errno = ctypes.get_errno()
            raise OSError(errno, f"timerfd_settime: {os.strerror(errno)}")

    def rest(self) -> None:
        """The callback ran and has nothing to re-arm for.  An expired
        timer fd stays readable (and epoll keeps reporting it) until it
        is read or set again, so every callback must end in :meth:`arm`
        or here."""
        if self._fd is not None:
            # Nothing to read if it was set again since it expired.
            with contextlib.suppress(BlockingIOError):
                os.read(self._fd, 8)    # the expiry count

    def close(self) -> None:
        if self._fd is not None:
            self._loop.remove_reader(self._fd)
            os.close(self._fd)
            self._fd = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class _PeerLink:
    """One outbound multiplexed connection: bounded queue + writer task.

    Frames wait in ``pending`` only while the socket cannot take them.
    On a connected, drained socket :meth:`flush` writes the whole queue
    inline as one ``write()``; the task is woken just to dial and to
    ``drain()`` a socket the kernel has pushed back on, and while it does
    either (``_busy``) the queue fills up to ``max_queue`` and then
    refuses — that is the backpressure."""

    __slots__ = ("transport", "dst", "pending", "task", "writer",
                 "_wake", "_busy")

    def __init__(self, transport: "WireTransport", dst: int) -> None:
        self.transport = transport
        self.dst = dst
        self.pending: Deque[bytes] = deque()
        self.writer: Optional[asyncio.StreamWriter] = None
        self._wake = asyncio.Event()
        self._busy = False
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"wire-link-{dst}")

    def offer(self, frame: bytes) -> bool:
        """Enqueue one encoded frame; False when the bounded queue is full."""
        if len(self.pending) >= self.transport.wire_config.max_queue:
            return False
        self.pending.append(frame)
        return True

    def flush(self) -> None:
        """Put everything queued on the wire: one joined ``write()`` now
        if the socket is ready, else as soon as the task has made it so."""
        if self._busy or not self.pending:
            return
        writer = self.writer
        if writer is not None and not writer.transport.is_closing():
            self._write(writer)
            if not writer.transport.get_write_buffer_size():
                return
        self._busy = True
        self._wake.set()

    def _write(self, writer: asyncio.StreamWriter) -> None:
        pending = self.pending
        data = b"".join(pending)
        counters = self.transport.counters
        counters.frames_sent += len(pending)
        counters.bytes_sent += len(data)
        pending.clear()
        writer.write(data)

    async def _dial(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Connect to the destination's server, backing off with jitter
        until it is reachable (its port may not even be bound yet)."""
        transport = self.transport
        cfg = transport.wire_config
        backoff = cfg.reconnect_base
        while True:
            port = transport.port_of(self.dst)
            if port is not None:
                try:
                    pair = await asyncio.open_connection(cfg.host, port)
                    transport.counters.connects += 1
                    return pair
                except OSError:
                    transport.counters.connect_failures += 1
            await asyncio.sleep(
                backoff * (1.0 + cfg.jitter * transport.rng.random()))
            backoff = min(backoff * 2.0, cfg.reconnect_max)

    async def _run(self) -> None:
        counters = self.transport.counters
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._busy:
                writer = self.writer
                try:
                    if writer is not None and writer.transport.is_closing():
                        raise ConnectionResetError("peer closed the link")
                    if writer is None:
                        _, writer = await self._dial()
                        self.writer = writer
                    if self.pending:
                        self._write(writer)
                    await writer.drain()
                except (ConnectionError, OSError):
                    # Whatever the dead socket still buffered is lost on
                    # the wire; frames queued since then ride the redial.
                    counters.resets += 1
                    self._close_writer()
                self._busy = bool(self.pending)

    def _close_writer(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    def reset(self) -> None:
        """Forcibly sever the live connection (fault injection)."""
        self._close_writer()

    async def aclose(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self._close_writer()


class WireTransport(AioTransport):
    """The :class:`AioTransport` contract over real TCP loopback sockets."""

    def __init__(
        self,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        wire_config: Optional[WireConfig] = None,
        counters: Optional[WireCounters] = None,
    ) -> None:
        super().__init__(delay=delay, loss_rate=loss_rate,
                         dup_rate=dup_rate, rng=rng)
        self.wire_config = wire_config if wire_config is not None else WireConfig()
        self.counters = counters if counters is not None else WireCounters()
        #: Last framing/codec violation seen on an inbound connection
        #: (the connection was closed; this is the post-mortem).
        self.last_wire_error: Optional[WireError] = None
        self._servers: Dict[int, "asyncio.Server"] = {}
        self._ports: Dict[int, int] = {}
        self._links: Dict[int, _PeerLink] = {}
        # The delay line: (due, src, dst, msg) in send order, which is due
        # order because dues are clamped non-decreasing; one timer (it
        # lives from start() to aclose()), armed for the head whenever the
        # line is non-empty.
        self._line: Deque[Tuple[float, int, int, object]] = deque()
        self._timer: Optional[_WakeTimer] = None
        self._last_due = 0.0
        self._binding: set = set()
        self._inbound: Set[asyncio.BaseTransport] = set()
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`aclose`."""
        return self._running

    async def start(self) -> None:
        """Bind one listening server per attached node (idempotent)."""
        if self._running:
            return
        self._running = True
        self._timer = _WakeTimer(asyncio.get_running_loop(), self._on_due)
        for node_id in list(self._handlers):
            await self._bind(node_id)

    async def aclose(self) -> None:
        """Close every link and server; the transport cannot be restarted."""
        self._running = False
        if self._timer is not None:
            self._timer.close()
            self._timer = None
        while self._line:
            _, src, dst, msg = self._line.popleft()
            self._drop(src, dst, msg, "detached")
        for link in list(self._links.values()):
            await link.aclose()
        self._links.clear()
        for server in self._servers.values():
            server.close()
        for inbound in list(self._inbound):
            inbound.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._ports.clear()
        await asyncio.sleep(0)      # the connection_lost callbacks run

    def attach(self, node_id: int, handler: Optional[Handler] = None,
               ) -> Optional[asyncio.Queue]:
        inbox = super().attach(node_id, handler)
        if self._running and node_id not in self._servers:
            # Late joiner on a live transport: bind its server as a task.
            # Frames addressed to it meanwhile sit in link queues redialing.
            asyncio.get_running_loop().create_task(self._bind(node_id))
        return inbox

    async def _bind(self, node_id: int) -> None:
        if (node_id in self._servers or node_id in self._binding
                or not self._running):
            return
        self._binding.add(node_id)
        try:
            server = await asyncio.get_running_loop().create_server(
                lambda: _Inbound(self), self.wire_config.host, 0)
        finally:
            self._binding.discard(node_id)
        if not self._running:
            server.close()
            return
        # A node keeps its server (and port) across detach/re-attach:
        # restarts do not move its address, so peers simply reconnect.
        self._servers[node_id] = server
        self._ports[node_id] = server.sockets[0].getsockname()[1]

    def port_of(self, node_id: int) -> Optional[int]:
        """The real TCP port ``node_id`` listens on (None before bind)."""
        return self._ports.get(node_id)

    def address_of(self, node_id: int) -> Optional[Tuple[str, int]]:
        """The real ``(host, port)`` endpoint of an attached node."""
        port = self._ports.get(node_id)
        if port is None:
            return None
        return (self.wire_config.host, port)

    # -- fault injection (socket layer) -------------------------------------------

    def reset_connections(self, dst: Optional[int] = None) -> None:
        """Sever live outbound TCP connections (to ``dst``, or all): the
        chaos-style "connection reset" fault.  Frames buffered in a dead
        socket are lost; the links redial with backoff on the next send."""
        for node, link in self._links.items():
            if dst is None or node == dst:
                link.reset()

    # -- data path -----------------------------------------------------------------

    def _schedule(self, src: int, dst: int, msg: object) -> None:
        # Fault injection already ran in the inherited send(); from here
        # the message is committed to the wire after the artificial delay.
        delay = self.delay
        if delay <= 0:
            link = self._transmit(src, dst, msg)
            if link is not None:
                link.flush()
            return
        timer = self._timer
        if timer is None:               # before start() or after aclose()
            self._drop(src, dst, msg, "detached")
            return
        # Clamped so that lowering ``delay`` mid-run cannot put a later
        # send ahead of an earlier one.
        now = timer.now()
        due = self._last_due = max(now + delay, self._last_due)
        self._line.append((due, src, dst, msg))
        if len(self._line) == 1:
            timer.arm(due - now)

    def _on_due(self) -> None:
        """The timer fired: transmit every frame that is due, then give
        each link touched one joined write."""
        timer = self._timer
        if timer is None:
            return                      # a stale wake-up after aclose()
        line = self._line
        now = timer.now()
        touched: Dict[int, _PeerLink] = {}
        try:
            while line and line[0][0] <= now:
                _, src, dst, msg = line.popleft()
                link = self._transmit(src, dst, msg)
                if link is not None:
                    touched[dst] = link
        finally:
            # Also when a frame refused to encode: the frames before it
            # still go out and the ones behind it keep their wake-up.
            for link in touched.values():
                link.flush()
            if line:
                timer.arm(line[0][0] - timer.now())
            else:
                timer.rest()

    def _transmit(self, src: int, dst: int,
                  msg: object) -> Optional[_PeerLink]:
        """Encode one due message onto its link's queue.  Returns the
        link for the caller to :meth:`~_PeerLink.flush`, or None when the
        message was dropped instead."""
        if not self._running:
            self._drop(src, dst, msg, "detached")
            return None
        frame = encode_frame(src, dst, msg)
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = _PeerLink(self, dst)
        if link.offer(frame):
            return link
        self.counters.backpressure_drops += 1
        self._drop(src, dst, msg, "backpressure")
        return None


class _Inbound(asyncio.Protocol):
    """One inbound connection: frames are cut out of the bytes as they
    arrive and handed to the inherited delivery path (crash/detach
    checks, hooks, the node's handler) in arrival order.  A framing or
    codec violation closes this connection with the typed error
    recorded; the peer closing, even mid-frame, just closes it."""

    __slots__ = ("wire", "frames", "transport")
    transport: asyncio.BaseTransport        # from connection_made()

    def __init__(self, wire: WireTransport) -> None:
        self.wire = wire
        self.frames = FrameReader(wire.wire_config.max_frame)

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.wire._inbound.add(transport)

    def data_received(self, data: bytes) -> None:
        wire = self.wire
        counters = wire.counters
        counters.bytes_received += len(data)
        deliver = wire._deliver
        try:
            for src, dst, msg in self.frames.feed(data):
                counters.frames_received += 1
                deliver(src, dst, msg)
        except (FrameError, CodecError) as exc:
            # A violating frame poisons the whole stream: a
            # length-prefixed stream has no resynchronization point.
            counters.codec_errors += 1
            wire.last_wire_error = exc
            self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.wire._inbound.discard(self.transport)
