"""Asyncio cluster: the real-time counterpart of
:class:`repro.core.cluster.Cluster`, plus dynamic membership and the
crash/restart surface the fault-tolerant runtime is built on.

Nodes run on one event loop, each core behind the transport handler
of its driver.  ``acquire``/``release`` give awaitable token access (the
mutual-exclusion surface the apps build on), ``join``/``leave`` exercise
the paper's Section 5 dynamic-membership sketch, and
``crash_node``/``restart_node`` are the crash-stop/rebirth primitives the
:class:`~repro.aio.supervisor.ClusterSupervisor` drives: a crashed node
loses its volatile state and its in-flight messages; a restarted node
comes back under a fresh core (optionally restored from a supervisor
snapshot) and a bumped reliability incarnation, and immediately re-arms
any acquires that were pending across the outage.

The authoritative :class:`~repro.faults.membership.MembershipService`
versions the ring; cores adopt new views immediately (in a distributed
deployment the view would ride :class:`~repro.core.messages.MembershipMsg`
updates — an approximate view only degrades search performance, never
safety, because grants are keyed by node id).
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional

from repro.aio.driver import AioNodeDriver
from repro.aio.reliability import ReliabilityConfig, ReliableChannel
from repro.aio.transport import AioTransport
from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, MembershipError
from repro.faults.membership import MembershipService, RingView
from repro.lint.sanitizer import ClusterSanitizer, sanitize_enabled
from repro.metrics.counters import MessageCounters, ReliabilityCounters

__all__ = ["AioCluster"]


class AioCluster:
    """Asyncio-driven token-passing cluster with awaitable grants."""

    def __init__(
        self,
        protocol: str,
        n: int,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        sanitize: Optional[bool] = None,
        reliability: Optional[ReliabilityConfig] = None,
        transport: Optional[AioTransport] = None,
    ) -> None:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        from repro.core.cluster import _registry

        registry = _registry()
        if protocol not in registry:
            raise ConfigError(
                f"unknown protocol {protocol!r}; choose from {sorted(registry)}"
            )
        self.protocol = protocol
        self._factory = registry[protocol]
        self.n = n
        self._seed = seed
        self.rng = random.Random(seed)
        self.config = config if config is not None else ProtocolConfig()
        self.config.n = n
        self.config.hold_until_release = True
        self.config.validate()
        if transport is not None:
            # An injected transport (e.g. the real-socket
            # repro.wire.WireTransport) arrives fully configured; the
            # delay/loss_rate/dup_rate arguments are ignored in its favor.
            self.transport = transport
        else:
            self.transport = AioTransport(delay=delay, loss_rate=loss_rate,
                                          dup_rate=dup_rate, rng=self.rng)
        enabled = sanitize_enabled() if sanitize is None else sanitize
        self.sanitizer = ClusterSanitizer() if enabled else None
        self.reliability = reliability
        self.reliability_counters = (
            ReliabilityCounters() if reliability is not None else None
        )
        self.messages = MessageCounters()
        self.membership = MembershipService(range(n))
        #: ``hook(node_id, driver)`` — fired whenever a driver is (re)built
        #: (initial construction, restart, join).  The supervisor and the
        #: aio invariant oracle use this to re-wire their per-driver hooks
        #: onto the fresh incarnation.
        self.on_driver: List = []
        self.drivers: Dict[int, AioNodeDriver] = {}
        self._incarnations: Dict[int, int] = {}
        self._recv_states: Dict[int, Dict] = {}
        self._grant_waiters: Dict[int, List[asyncio.Future]] = {}
        self._grant_log: List[int] = []
        self._next_id = n
        self._started = False
        for node_id in range(n):
            self._make_driver(node_id)
        self.membership.subscribe(self._on_view_change)

    def _make_driver(self, node_id: int,
                     restore: Optional[Dict] = None) -> AioNodeDriver:
        core = self._factory(node_id, self.config)
        core.ring = self.membership.view
        if node_id in self._incarnations:
            # Rebuilt cores must never *own* the token by construction.
            # The factory gives the configured initial holder (node 0 by
            # default) ``has_token=True`` — correct at cluster birth, but a
            # reborn node 0 would resurrect a stale token at its original
            # epoch, with no fence able to retire it.  Ownership after a
            # restart only ever arrives over the wire or via regeneration.
            core.has_token = False
            core.lent_to = None
            core.last_visit = -1
        if restore:
            for attr, value in restore.items():
                setattr(core, attr, value)
        channel = None
        if self.reliability is not None:
            incarnation = self._incarnations.get(node_id, 0)
            channel = ReliableChannel(
                node_id, self.transport,
                incarnation=incarnation,
                config=self.reliability,
                rng=random.Random(
                    self._seed * 1_000_003 + node_id * 101 + incarnation),
                counters=self.reliability_counters,
            )
            saved = self._recv_states.pop(node_id, None)
            if saved:
                channel.restore_recv_state(saved)
        driver = AioNodeDriver(self.transport, core,
                               sanitizer=self.sanitizer, channel=channel)
        driver.subscribe(self._on_app_event)
        driver.on_send_msg.append(self.messages.on_send)
        self.drivers[node_id] = driver
        for hook in self.on_driver:
            hook(node_id, driver)
        return driver

    def _on_view_change(self, view: RingView) -> None:
        for driver in self.drivers.values():
            driver.core.ring = view

    def _on_app_event(self, node: int, kind: str, payload: tuple, now: float) -> None:
        if kind == "granted":
            self._grant_log.append(node)
            waiters = self._grant_waiters.get(node)
            if not waiters:
                # Nobody is waiting (the acquire timed out, or the grant
                # answers a pre-crash request): hand the token straight
                # back, otherwise it would sit here forever in
                # hold-until-release mode.  Deferred to the next loop
                # iteration — we are inside the driver's effect
                # application right now.
                driver = self.drivers.get(node)
                if driver is not None:
                    asyncio.get_running_loop().call_soon(driver.release)
                return
            # One grant admits exactly one waiter (FIFO).  If others are
            # queued on the same node, re-arm the request so the core
            # serves them on the next release.
            future = waiters.pop(0)
            if not waiters:
                del self._grant_waiters[node]
            if not future.done():
                future.set_result(node)
            if node in self._grant_waiters:
                driver = self.drivers.get(node)
                if driver is not None:
                    driver.request()

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Start every node (idempotent).  A transport with an async
        ``start`` (the real-socket one binds its listeners there) is
        started first, so node ``on_start`` traffic has somewhere to go."""
        if self._started:
            return
        self._started = True
        transport_start = getattr(self.transport, "start", None)
        if transport_start is not None:
            await transport_start()
        for driver in list(self.drivers.values()):
            await driver.start()

    async def stop(self) -> None:
        """Stop every node (and close an injected transport that owns
        real resources, via its async ``aclose``)."""
        for driver in list(self.drivers.values()):
            await driver.stop()
        transport_close = getattr(self.transport, "aclose", None)
        if transport_close is not None:
            await transport_close()
        self._started = False

    # -- token access ------------------------------------------------------------------

    async def acquire(self, node: int, timeout: Optional[float] = None) -> None:
        """Await the token for ``node`` (mutual-exclusion entry)."""
        driver = self.drivers.get(node)
        if driver is None:
            raise MembershipError(f"node {node} is not a member")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._grant_waiters.setdefault(node, []).append(future)
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

    def release(self, node: int) -> None:
        """Release the token held by ``node`` (mutual-exclusion exit)."""
        driver = self.drivers.get(node)
        if driver is None:
            raise MembershipError(f"node {node} is not a member")
        driver.release()

    def lock(self, node: int, timeout: Optional[float] = None):
        """``async with cluster.lock(node):`` critical-section helper."""
        return _Lock(self, node, timeout)

    @property
    def grant_order(self) -> List[int]:
        """Nodes in the order they were granted the token — the cluster's
        total order (used by the broadcast app)."""
        return list(self._grant_log)

    def pending_acquires(self, node: int) -> int:
        """Waiters currently queued on ``node`` (diagnostics/tests)."""
        return len(self._grant_waiters.get(node, ()))

    # -- crash / restart -----------------------------------------------------------

    async def crash_node(self, node: int) -> None:
        """Crash-stop ``node``: its volatile core state, timers and channel
        are lost; in-flight messages to it are dropped.  The node
        stays a ring member (a crash is not a leave)."""
        driver = self.drivers.get(node)
        if driver is None:
            raise MembershipError(f"node {node} is not a member")
        if driver.crashed:
            return
        driver.crashed = True
        await driver.stop()
        if driver.channel is not None:
            # The ARQ dedup watermark is durable (see
            # ReliableChannel.export_recv_state): a reborn node must not
            # re-accept frames its previous incarnation already acted on.
            self._recv_states[node] = driver.channel.export_recv_state()
        self.transport.crash(node)
        if self.sanitizer is not None:
            self.sanitizer.mark_crashed(node)

    async def restart_node(self, node: int,
                           restore: Optional[Dict] = None) -> AioNodeDriver:
        """Bring a crashed node back under a fresh core.

        ``restore`` is an attribute dict (a supervisor snapshot) applied to
        the new core — typically ``epoch``/``last_visit``/``clock`` so the
        reborn node rejoins the current token lineage instead of accepting
        stale history.  Acquires that were pending across the outage are
        re-armed immediately."""
        driver = self.drivers.get(node)
        if driver is None:
            raise MembershipError(f"node {node} is not a member")
        if not driver.crashed:
            raise MembershipError(f"node {node} is not crashed")
        self.transport.recover(node)
        if self.sanitizer is not None:
            # Forget the dead incarnation entirely: the fresh core starts a
            # new clock history (possibly restored from a snapshot).
            self.sanitizer.unregister(node)
        self._incarnations[node] = self._incarnations.get(node, 0) + 1
        fresh = self._make_driver(node, restore=restore)
        if self._started:
            await fresh.start()
        if self._grant_waiters.get(node):
            fresh.request()
        return fresh

    def crashed_nodes(self) -> List[int]:
        """Currently crash-stopped members."""
        return sorted(n for n, d in self.drivers.items() if d.crashed)

    # -- membership ------------------------------------------------------------------------

    async def join(self, sponsor: Optional[int] = None) -> int:
        """Add a fresh node to the ring; returns its id."""
        node_id = self._next_id
        self._next_id += 1
        # Grow the config ceiling so new ids validate; geometry itself
        # always follows the ring view.
        self.config.n = max(self.config.n, node_id + 1)
        driver = self._make_driver(node_id)
        self.membership.join(node_id, sponsor=sponsor)
        if self._started:
            await driver.start()
        return node_id

    async def leave(self, node: int, timeout: Optional[float] = None) -> None:
        """Remove ``node`` from the ring.  The node must not hold the token;
        we wait up to ``timeout`` wall-clock seconds for it to pass the
        token on (default: 200 transport delays, floored at 0.2 s)."""
        driver = self.drivers.get(node)
        if driver is None:
            raise MembershipError(f"node {node} is not a member")
        if timeout is None:
            timeout = max(200 * self.transport.delay, 0.2)
        core = driver.core
        loop = asyncio.get_running_loop()
        started = loop.time()
        poll = max(self.transport.delay, 1e-4)
        while core.has_token or core.lent_to is not None:
            elapsed = loop.time() - started
            if elapsed >= timeout:
                raise MembershipError(
                    f"node {node} still holds the token after "
                    f"{elapsed:.3f}s (timeout {timeout:.3f}s); cannot leave"
                )
            await asyncio.sleep(poll)
        self.membership.leave(node)
        await driver.stop()
        if self.sanitizer is not None:
            self.sanitizer.unregister(node)
        del self.drivers[node]


class _Lock:
    """Async context manager for the critical section."""

    def __init__(self, cluster: AioCluster, node: int, timeout: Optional[float]) -> None:
        self._cluster = cluster
        self._node = node
        self._timeout = timeout

    async def __aenter__(self) -> int:
        await self._cluster.acquire(self._node, timeout=self._timeout)
        return self._node

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self._cluster.release(self._node)
