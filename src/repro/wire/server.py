"""The lock service: acquire/release/status over real TCP.

:class:`LockServiceServer` fronts an :class:`~repro.aio.cluster.AioCluster`
with a network API.  Each client connection speaks the frame codec;
requests are dispatched concurrently (a connection may pipeline), replies
are correlated by ``req_id``.  Routing is deliberately thin — the server
adds no queueing of its own: an acquire simply awaits
``cluster.acquire(node)``, so fairness, searches, and fault recovery are
entirely the protocol's, observed end-to-end by whatever oracle is
attached to the cluster.

Session hygiene: the server tracks which grants each connection holds
and releases them when the connection dies — a crashed client must not
wedge the token under a grant nobody will ever release.  A frame that
violates the codec closes the connection (typed error recorded on
:attr:`last_wire_error`), exactly like the node-to-node transport.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.aio.cluster import AioCluster
from repro.errors import CodecError, FrameError, MembershipError, WireError
from repro.metrics.keyed import LatencyHistogram
from repro.wire.codec import MAX_FRAME, encode_frame, read_frame
from repro.wire.service import (
    AcquireReply,
    AcquireRequest,
    ReleaseReply,
    ReleaseRequest,
    StatusReply,
    StatusRequest,
)

__all__ = ["LockServiceServer"]


class _Session:
    """Per-connection state: the reply stream, held grants, live requests."""

    __slots__ = ("writer", "held", "tasks")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.held: Dict[int, int] = {}          # node -> grants held
        self.tasks: List[asyncio.Task] = []


class LockServiceServer:
    """Thin acquire/release/status façade over a running cluster."""

    def __init__(self, cluster: AioCluster, host: str = "127.0.0.1",
                 port: int = 0, max_frame: int = MAX_FRAME) -> None:
        self.cluster = cluster
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.grants = 0
        self.releases = 0
        self.failures = 0
        self.wait_histogram = LatencyHistogram()
        self.last_wire_error: Optional[WireError] = None
        self._server: Optional["asyncio.Server"] = None
        self._sessions: List[_Session] = []
        self._rr = 0
        self._members: List[int] = []       # round-robin order, see _pick_node
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Start the cluster (and its transport) and begin listening."""
        await self.cluster.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = asyncio.get_running_loop().time()

    async def stop(self) -> None:
        """Stop listening, drop every session, and stop the cluster."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions):
            for task in session.tasks:
                task.cancel()
            session.writer.close()
        self._sessions.clear()
        await self.cluster.stop()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        session = _Session(writer)
        self._sessions.append(session)
        try:
            while True:
                _, _, msg = await read_frame(reader, self.max_frame)
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(session, msg))
                session.tasks.append(task)
                task.add_done_callback(session.tasks.remove)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # client went away
        except (FrameError, CodecError) as exc:
            self.last_wire_error = exc
        finally:
            if session in self._sessions:
                self._sessions.remove(session)
            for task in list(session.tasks):
                task.cancel()
            self._release_held(session)
            writer.close()

    def _release_held(self, session: _Session) -> None:
        """A dead client's grants go back to the cluster."""
        for node, count in list(session.held.items()):
            for _ in range(count):
                try:
                    self.cluster.release(node)
                except MembershipError:
                    break  # the node itself left or crashed
        session.held.clear()

    async def _reply(self, session: _Session, msg: object) -> None:
        writer = session.writer
        if writer.is_closing():
            return
        # One write() per reply keeps frames whole between pipelined
        # requests; drain() only matters once the kernel pushes back.
        writer.write(encode_frame(-1, -1, msg))
        if writer.transport.get_write_buffer_size():
            await writer.drain()

    def _pick_node(self, requested: int) -> int:
        drivers = self.cluster.drivers
        if requested >= 0:
            if requested not in drivers:
                raise MembershipError(f"node {requested} is not a member")
            return requested
        # The sorted member list is cached; a join or leave shows as a
        # changed size, or (one of each since) as a listed node gone.
        members = self._members
        if (len(members) != len(drivers)
                or members[self._rr % len(members)] not in drivers):
            members = self._members = sorted(drivers)
        node = members[self._rr % len(members)]
        self._rr += 1
        return node

    async def _dispatch(self, session: _Session, msg: object) -> None:
        if isinstance(msg, AcquireRequest):
            await self._do_acquire(session, msg)
        elif isinstance(msg, ReleaseRequest):
            await self._do_release(session, msg)
        elif isinstance(msg, StatusRequest):
            await self._do_status(session, msg)
        else:
            # A registered-but-unexpected message type is a codec-level
            # violation of the service contract; drop the session.
            self.last_wire_error = CodecError(
                f"unexpected service message {type(msg).__name__}")
            session.writer.close()

    async def _do_acquire(self, session: _Session,
                          req: AcquireRequest) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            node = self._pick_node(req.node)
            timeout = req.timeout if req.timeout > 0 else None
            await self.cluster.acquire(node, timeout=timeout)
        except asyncio.TimeoutError:
            self.failures += 1
            await self._reply(session, AcquireReply(
                req_id=req.req_id, ok=False, node=req.node,
                waited=loop.time() - start, error="timeout"))
            return
        except MembershipError as exc:
            self.failures += 1
            await self._reply(session, AcquireReply(
                req_id=req.req_id, ok=False, node=req.node, error=str(exc)))
            return
        waited = loop.time() - start
        if session not in self._sessions:
            # The client died while its acquire waited; its session is
            # already torn down, so hand the grant straight back.
            try:
                self.cluster.release(node)
            except MembershipError:
                pass
            return
        self.grants += 1
        self.wait_histogram.add(waited)
        session.held[node] = session.held.get(node, 0) + 1
        await self._reply(session, AcquireReply(
            req_id=req.req_id, ok=True, node=node, waited=waited))

    async def _do_release(self, session: _Session,
                          req: ReleaseRequest) -> None:
        held = session.held.get(req.node, 0)
        if held <= 0:
            self.failures += 1
            await self._reply(session, ReleaseReply(
                req_id=req.req_id, ok=False,
                error=f"connection holds no grant on node {req.node}"))
            return
        if held == 1:
            del session.held[req.node]
        else:
            session.held[req.node] = held - 1
        try:
            self.cluster.release(req.node)
        except MembershipError as exc:
            self.failures += 1
            await self._reply(session, ReleaseReply(
                req_id=req.req_id, ok=False, error=str(exc)))
            return
        self.releases += 1
        await self._reply(session, ReleaseReply(req_id=req.req_id, ok=True))

    async def _do_status(self, session: _Session,
                         req: StatusRequest) -> None:
        cluster = self.cluster
        pending = tuple(
            (node, cluster.pending_acquires(node))
            for node in sorted(cluster.drivers)
            if cluster.pending_acquires(node)
        )
        await self._reply(session, StatusReply(
            req_id=req.req_id, ok=True,
            n=len(cluster.drivers),
            protocol=cluster.protocol,
            grants=self.grants,
            pending=pending,
            crashed=tuple(cluster.crashed_nodes()),
            uptime=asyncio.get_running_loop().time() - self._started_at,
        ))
