"""Asyncio cluster: :class:`repro.core.cluster.Cluster` on the running
event loop (or an injected transport's clock), plus what needs a loop:
awaitable grants in hold-until-release mode (``acquire``/``lock``, the
mutual-exclusion surface the apps build on) re-armed across a restart,
``start``/``stop`` around a transport that owns sockets, and a ``leave``
that waits for the node to pass the token on.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Dict, List, Optional

from repro.aio.reliability import ReliabilityConfig
from repro.aio.virtualtime import RUNNING_LOOP
from repro.core.cluster import Cluster, _factory_for
from repro.core.config import ProtocolConfig
from repro.errors import MembershipError
from repro.sim.driver import NodeDriver
from repro.sim.network import Network

__all__ = ["AioCluster"]


class AioCluster(Cluster):
    """Asyncio-driven token-passing cluster with awaitable grants.

    ``delay`` is in seconds; an injected ``transport`` (e.g. the
    real-socket :class:`~repro.wire.transport.WireTransport`) arrives fully
    configured and ``delay``/``loss_rate``/``dup_rate`` are ignored."""

    def __init__(
        self,
        protocol: str,
        n: int,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        sanitize: bool = True,
        reliability: Optional[ReliabilityConfig] = None,
        transport: Optional[Network] = None,
    ) -> None:
        config = config if config is not None else ProtocolConfig()
        config.hold_until_release = True
        self.protocol = protocol
        self._grant_waiters: Dict[int, List[asyncio.Future]] = {}
        self._grant_log: List[int] = []
        super().__init__(_factory_for(protocol), n, seed=seed, config=config,
                         delay=delay, loss_rate=loss_rate, dup_rate=dup_rate,
                         sanitize=sanitize, sim=RUNNING_LOOP,
                         network=transport, reliability=reliability)
        self.transport = self.network

    def _on_app_event(self, node: int, kind: str, payload: tuple, now: float) -> None:
        super()._on_app_event(node, kind, payload, now)
        if kind != "granted":
            return
        self._grant_log.append(node)
        waiters = self._grant_waiters.get(node)
        if not waiters:
            # Nobody is waiting (the acquire timed out, or the grant
            # answers a pre-crash request): hand the token straight back,
            # otherwise it would sit here forever in hold-until-release
            # mode.  Deferred to the next loop iteration — we are inside
            # the driver's handling of the event that granted right now.
            asyncio.get_running_loop().call_soon(self.drivers[node].release)
            return
        # One grant admits exactly one waiter (FIFO).  If others are queued
        # on the same node, re-arm the request so the core serves them on
        # the next release.
        future = waiters.pop(0)
        if not waiters:
            del self._grant_waiters[node]
        if not future.done():
            future.set_result(node)
        if node in self._grant_waiters:
            self.drivers[node].request()

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Start every node (idempotent).  A transport with an async
        ``start`` (the real-socket one binds its listeners there) is
        started first, so node ``on_start`` traffic has somewhere to go."""
        if self._started:
            return
        transport_start = getattr(self.network, "start", None)
        if transport_start is not None:
            await transport_start()
        super().start()

    async def stop(self) -> None:
        """Stop every node (and close an injected transport that owns
        real resources, via its async ``aclose``)."""
        for driver in list(self.drivers.values()):
            driver.stop()
        transport_close = getattr(self.network, "aclose", None)
        if transport_close is not None:
            await transport_close()
        self._started = False

    def restart(self, node: int, restore: Optional[Dict] = None) -> NodeDriver:
        fresh = super().restart(node, restore=restore)
        if self._grant_waiters.get(node):
            fresh.request()
        return fresh

    # -- token access ------------------------------------------------------------------

    async def acquire(self, node: int, timeout: Optional[float] = None) -> None:
        """Await the token for ``node`` (mutual-exclusion entry)."""
        driver = self._member(node)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        waiters = self._grant_waiters.setdefault(node, [])
        waiters.append(future)
        if len(waiters) == 1:
            # Only the first waiter asks: a repeated request would re-arm
            # the core's suspect timer, so a trickle of acquires would
            # postpone token-loss detection.  Each grant re-requests for
            # the next waiter.
            driver.request()
        try:
            await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            # Regression guard: a timed-out waiter must not linger in the
            # queue, where it would silently swallow the node's next grant.
            waiters = self._grant_waiters.get(node)
            if waiters is not None and future in waiters:
                waiters.remove(future)
                if not waiters:
                    del self._grant_waiters[node]
            raise

    @contextlib.asynccontextmanager
    async def lock(self, node: int, timeout: Optional[float] = None):
        """``async with cluster.lock(node):`` critical-section helper."""
        await self.acquire(node, timeout=timeout)
        try:
            yield node
        finally:
            self.release(node)

    @property
    def grant_order(self) -> List[int]:
        """Nodes in the order they were granted the token — the cluster's
        total order (used by the broadcast app)."""
        return list(self._grant_log)

    def pending_acquires(self, node: int) -> int:
        """Waiters currently queued on ``node`` (diagnostics/tests)."""
        return len(self._grant_waiters.get(node, ()))

    # -- membership ------------------------------------------------------------------------

    async def leave(self, node: int, timeout: Optional[float] = None) -> None:
        """Remove ``node`` from the ring.  The node must not hold the token;
        we wait up to ``timeout`` seconds for it to pass the token on
        (default: 200 transport delays, floored at 0.2 s)."""
        driver = self._member(node)
        if timeout is None:
            timeout = max(200 * self.network.delay, 0.2)
        core = driver.core
        started = self._time()
        poll = max(self.network.delay, 1e-4)
        while core.has_token or core.lent_to is not None:
            elapsed = self._time() - started
            if elapsed >= timeout:
                raise MembershipError(
                    f"node {node} still holds the token after "
                    f"{elapsed:.3f}s (timeout {timeout:.3f}s); cannot leave"
                )
            await asyncio.sleep(poll)
        self.membership.leave(node)
        driver.stop()
        if self.sanitizer is not None:
            self.sanitizer.unregister(node)
        del self.drivers[node]

