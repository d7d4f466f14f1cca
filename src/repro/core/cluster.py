"""Cluster: wires protocol cores, the network, workloads, and metrics.

This is the main entry point for simulation experiments::

    from repro import Cluster, FixedRateWorkload

    cluster = Cluster.build("binary_search", n=100, seed=1)
    cluster.add_workload(FixedRateWorkload(mean_interval=10.0))
    cluster.run(rounds=1000)
    print(cluster.responsiveness.average_responsiveness())

``Cluster.build`` accepts a protocol name; ``Cluster`` itself accepts a
core factory for custom protocols.  All randomness flows from one seeded
RNG; runs are deterministic.

One cluster runs on any clock: a private simulator by default, or the
clock given as ``sim`` or carried by an injected ``network``
(:class:`repro.aio.cluster.AioCluster` adds the awaitable surface of the
asyncio runtime).  Crash, restart and join (the paper's Section 5) are
plain calls on every clock.  Cores adopt each view of the
:class:`~repro.faults.membership.MembershipService` at once: an
approximate view only degrades search, never safety, because grants are
keyed by node id.  Until the first view change they keep ``ring = None``,
the same geometry as the ``0..n-1`` ring without the view lookups.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.protocols import REGISTRY
from repro.errors import ConfigError, MembershipError, SimulationError, TokenSafetyError
from repro.faults.membership import MembershipService, RingView
from repro.lint.sanitizer import ClusterSanitizer
from repro.metrics.counters import MessageCounters, ReliabilityCounters
from repro.metrics.fairness import FairnessAuditor
from repro.metrics.responsiveness import ResponsivenessTracker
from repro.sim.driver import NodeDriver
from repro.sim.kernel import Simulator
from repro.sim.network import DelayModel, Network

if TYPE_CHECKING:
    from repro.aio.reliability import ReliabilityConfig

__all__ = ["Cluster"]

CoreFactory = Callable[[int, ProtocolConfig], ProtocolCore]


def _registry() -> Dict[str, CoreFactory]:
    """name -> core class: the protocol table's registry.  Tracers wrap
    handlers on these values by name, so they are looked up per call."""
    return REGISTRY


def _factory_for(protocol: str) -> CoreFactory:
    """The core class registered as ``protocol``."""
    registry = _registry()
    factory = registry.get(protocol)
    if factory is None:
        raise ConfigError(
            f"unknown protocol {protocol!r}; choose from {sorted(registry)}"
        )
    return factory


class Cluster:
    """N protocol nodes over one network on one clock, with metrics attached.
    An injected ``network`` arrives configured (``delay``, ``loss_rate`` and
    ``dup_rate`` are ignored); ``reliability`` gives each node an ARQ
    :class:`~repro.aio.reliability.ReliableChannel`."""

    def __init__(
        self,
        core_factory: CoreFactory,
        n: int,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        delay: Union[DelayModel, float, None] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        track_fairness: bool = False,
        sanitize: bool = True,
        sim: Any = None,
        network: Optional[Network] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> None:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        self.n = n
        self._seed = seed
        self.rng = random.Random(seed)
        self.config = config if config is not None else ProtocolConfig()
        self.config.n = n
        self.config.validate()
        if network is None:
            network = Network(
                sim if sim is not None else Simulator(), self.rng,
                delay=delay, loss_rate=loss_rate, dup_rate=dup_rate,
            )
        self.network = network
        self.sim = network.clock
        self._time = network.clock.time
        self._factory = core_factory
        self.responsiveness = ResponsivenessTracker()
        self.messages = MessageCounters()
        self.fairness = FairnessAuditor() if track_fairness else None
        self.sanitizer = ClusterSanitizer() if sanitize else None
        self.reliability = reliability
        self.reliability_counters = (
            ReliabilityCounters() if reliability is not None else None
        )
        self.membership = MembershipService(range(n))
        #: ``hook(node_id, driver)`` — fired whenever a driver is (re)built
        #: (construction, restart, join).  The supervisor, the oracle and
        #: the fuzz digest wire their per-driver hooks onto the fresh one.
        self.on_driver: List[Callable[[int, NodeDriver], None]] = []
        self.drivers: Dict[int, NodeDriver] = {}
        self._ring: Optional[RingView] = None
        self._incarnations: Dict[int, int] = {}
        self._recv_states: Dict[int, Dict] = {}
        self._waiting: Dict[int, int] = {}
        self._workloads: List = []
        self._grant_hooks: List[Callable[[int, int, float], None]] = []
        self._rounds_seen = 0
        self._started = False
        for node_id in range(n):
            self._make_driver(node_id)
        self.membership.subscribe(self._on_view_change)

    @classmethod
    def build(cls, protocol: str, n: int, **kwargs) -> "Cluster":
        """Construct a cluster by protocol name; see module docstring."""
        return cls(_factory_for(protocol), n, **kwargs)

    def _make_driver(self, node_id: int,
                     restore: Optional[Dict] = None) -> NodeDriver:
        """Build and register ``node_id``'s driver: its first, or the next
        incarnation of a restarted node (``restore`` sets attributes of
        the fresh core)."""
        core = self._factory(node_id, self.config)
        core.ring = self._ring
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
            from repro.aio.reliability import ReliableChannel

            incarnation = self._incarnations.get(node_id, 0)
            channel = ReliableChannel(
                node_id, self.network,
                incarnation=incarnation,
                config=self.reliability,
                rng=random.Random(
                    self._seed * 1_000_003 + node_id * 101 + incarnation),
                counters=self.reliability_counters,
            )
            saved = self._recv_states.pop(node_id, None)
            if saved:
                channel.restore_recv_state(saved)
        driver = NodeDriver(self.sim, self.network, core,
                            sanitizer=self.sanitizer, channel=channel)
        driver.subscribe(self._on_app_event)
        # Counted once per logical send, never per retransmission.
        driver.on_send_msg.append(self.messages.on_send)
        self.drivers[node_id] = driver
        for hook in self.on_driver:
            hook(node_id, driver)
        return driver

    def _member(self, node: int) -> NodeDriver:
        driver = self.drivers.get(node)
        if driver is None:
            raise MembershipError(f"node {node} is not a member")
        return driver

    # -- event plumbing -----------------------------------------------------------

    def _on_view_change(self, view: RingView) -> None:
        self._ring = view
        for driver in self.drivers.values():
            driver.core.ring = view

    def _on_app_event(self, node: int, kind: str, payload: tuple, now: float) -> None:
        if kind == "granted":
            waited_seq = self._waiting.pop(node, None)
            if waited_seq is not None:
                self.responsiveness.on_grant(node, waited_seq, now)
                if self.fairness is not None:
                    self.fairness.on_grant(node, waited_seq, now)
                for hook in self._grant_hooks:
                    hook(node, waited_seq, now)
                for workload in self._workloads:
                    workload.on_grant(node, waited_seq, now)
        elif kind == "token_visit":
            rounds = payload[1] // self.n
            if rounds > self._rounds_seen:
                self._rounds_seen = rounds
            if self.fairness is not None:
                self.fairness.on_visit(node, now)

    def on_grant(self, hook: Callable[[int, int, float], None]) -> None:
        """Register a callback fired at every satisfied request."""
        self._grant_hooks.append(hook)

    # -- public API ------------------------------------------------------------------

    def add_workload(self, workload) -> None:
        """Attach a workload generator (before or after ``start``)."""
        self._workloads.append(workload)
        workload.bind(self)

    def request(self, node: int) -> None:
        """Make ``node`` ready.  A node already waiting is left as-is (its
        pending request stands)."""
        driver = self._member(node)
        if driver.crashed or node in self._waiting:
            return
        seq = driver.core.req_seq + 1
        self._waiting[node] = seq
        now = self._time()
        self.responsiveness.on_request(node, seq, now)
        if self.fairness is not None:
            self.fairness.on_request(node, seq, now)
        driver.request()

    def release(self, node: int) -> None:
        """Release a held grant (hold_until_release mode)."""
        self._member(node).release()

    def start(self) -> None:
        """Start every node (idempotent)."""
        if self._started:
            return
        self._started = True
        for driver in list(self.drivers.values()):
            driver.start()

    def run(
        self,
        rounds: Optional[int] = None,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        grants: Optional[int] = None,
    ) -> None:
        """Run until any given bound is hit: token circulations completed
        (``rounds``), virtual time (``until``), executed events, or
        satisfied requests (``grants``)."""
        if rounds is None and until is None and max_events is None and grants is None:
            raise SimulationError("run() needs at least one stopping bound")
        if rounds is not None and len(self.drivers) < 2:
            # A lone node keeps the token: no visit is ever delivered, so
            # the rounds bound could only end on the event budget.
            raise ConfigError(
                f"a rounds bound needs a ring of at least 2 nodes, "
                f"got {len(self.drivers)}")
        self.start()
        budget = max_events if max_events is not None else 200_000_000
        # Small chunks keep the rounds/grants bounds tight (we only check
        # between chunks); one chunk is roughly a tenth of a circulation.
        chunk = max(64, self.n // 8 * 10)
        sim_run = self.sim.run
        grants_seen = self.responsiveness.grants
        while budget > 0:
            if rounds is not None and self._rounds_seen >= rounds:
                break
            if grants is not None and grants_seen() >= grants:
                break
            step = min(chunk, budget)
            executed = sim_run(until=until, max_events=step)
            budget -= executed
            if executed < step:
                break  # queue drained or `until` reached

    # -- crash, restart, join -------------------------------------------------------

    def crash(self, node: int) -> None:
        """Crash-stop ``node``: its timers, retransmissions and everything
        in flight to it are lost.  It stays a ring member (a crash is not a
        leave) until :meth:`restart` gives it a fresh core; its driver's
        ``recover`` revives the old core instead."""
        driver = self._member(node)
        if driver.crashed:
            return
        driver.crash()
        if driver.channel is not None:
            driver.channel.stop()
            # The ARQ dedup watermark is durable (see
            # ReliableChannel.export_recv_state): a reborn node must not
            # re-accept frames its previous incarnation already acted on.
            self._recv_states[node] = driver.channel.export_recv_state()

    def restart(self, node: int, restore: Optional[Dict] = None) -> NodeDriver:
        """Bring crashed ``node`` back under a fresh core and the next
        incarnation; a request pending across the outage is re-armed.
        ``restore`` (a supervisor snapshot: ``epoch``, ``last_visit``,
        ``clock``, ...) sets attributes of the new core, so the reborn node
        rejoins the current token lineage instead of stale history."""
        driver = self._member(node)
        if not driver.crashed:
            raise MembershipError(f"node {node} is not crashed")
        driver.stop()
        self.network.recover(node)
        if self.sanitizer is not None:
            # Forget the dead incarnation entirely: the fresh core starts a
            # new clock history (possibly restored from a snapshot).
            self.sanitizer.unregister(node)
        self._incarnations[node] = self._incarnations.get(node, 0) + 1
        fresh = self._make_driver(node, restore=restore)
        if self._started:
            fresh.start()
        if node in self._waiting:
            fresh.request()
        return fresh

    def crashed_nodes(self) -> List[int]:
        """Currently crash-stopped members."""
        return sorted(n for n, d in self.drivers.items() if d.crashed)

    def join(self, sponsor: Optional[int] = None) -> int:
        """Add a fresh node to the ring; returns its id (the next free)."""
        node_id = self.config.n
        # Grow the id ceiling so the new id validates; geometry itself
        # follows the ring view.
        self.config.n = node_id + 1
        driver = self._make_driver(node_id)
        self.membership.join(node_id, sponsor=sponsor)
        if self._started:
            driver.start()
        return node_id

    # -- audit helpers -----------------------------------------------------------------

    def token_census(self) -> int:
        """Count live tokens among non-crashed nodes (held or on loan).
        In-flight tokens are *not* visible here; call at quiescent points
        or accept over-approximation only on the low side."""
        return sum(
            1 for driver in self.drivers.values()
            if not driver.crashed and (driver.core.has_token
                                       or driver.core.lent_to is not None))

    def assert_single_token(self) -> None:
        """Raise :class:`TokenSafetyError` when more than one token is
        observable at rest."""
        census = self.token_census()
        if census > 1:
            raise TokenSafetyError(f"{census} tokens observed at rest")

    @property
    def rounds(self) -> int:
        """Completed token circulations (from the visit clock)."""
        return self._rounds_seen
