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
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.protocols import REGISTRY
from repro.errors import ConfigError, SimulationError, TokenSafetyError
from repro.lint.sanitizer import ClusterSanitizer, sanitize_enabled
from repro.metrics.counters import MessageCounters
from repro.metrics.fairness import FairnessAuditor
from repro.metrics.responsiveness import ResponsivenessTracker
from repro.sim.driver import NodeDriver
from repro.sim.kernel import Simulator
from repro.sim.network import DelayModel, Network

__all__ = ["Cluster"]

CoreFactory = Callable[[int, ProtocolConfig], ProtocolCore]


def _registry() -> Dict[str, CoreFactory]:
    """name -> core class: the protocol table's registry.  Tracers wrap
    handlers on these values by name, so they are looked up per call."""
    return REGISTRY


class Cluster:
    """N protocol nodes over a simulated network, with metrics attached."""

    def __init__(
        self,
        core_factory: CoreFactory,
        n: int,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        delay: Optional[DelayModel] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        track_fairness: bool = False,
        sanitize: Optional[bool] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        self.n = n
        self.rng = random.Random(seed)
        # A shared scheduler (e.g. a fabric's SimView) may be injected;
        # standalone clusters own a private kernel, as ever.
        self.sim = sim if sim is not None else Simulator()
        self.config = config if config is not None else ProtocolConfig()
        self.config.n = n
        self.config.validate()
        self.network = Network(
            self.sim, self.rng, delay=delay,
            loss_rate=loss_rate, dup_rate=dup_rate,
        )
        self.responsiveness = ResponsivenessTracker()
        self.messages = MessageCounters()
        self.network.on_send.append(self.messages.on_send)
        self.fairness = FairnessAuditor() if track_fairness else None
        # The transition sanitizer is on unless REPRO_SANITIZE disables it
        # (or the caller pins `sanitize` explicitly).
        enabled = sanitize_enabled() if sanitize is None else sanitize
        self.sanitizer = ClusterSanitizer() if enabled else None
        self.drivers: Dict[int, NodeDriver] = {}
        self._waiting: Dict[int, int] = {}
        self._workloads: List = []
        self._grant_hooks: List[Callable[[int, int, float], None]] = []
        self._rounds_seen = 0
        self._started = False
        for node_id in range(n):
            core = core_factory(node_id, self.config)
            driver = NodeDriver(self.sim, self.network, core,
                                sanitizer=self.sanitizer)
            driver.subscribe(self._on_app_event)
            self.drivers[node_id] = driver

    @classmethod
    def build(cls, protocol: str, n: int, **kwargs) -> "Cluster":
        """Construct a cluster by protocol name; see module docstring."""
        registry = _registry()
        factory = registry.get(protocol)
        if factory is None:
            raise ConfigError(
                f"unknown protocol {protocol!r}; choose from {sorted(registry)}"
            )
        return cls(factory, n, **kwargs)

    # -- event plumbing -----------------------------------------------------------

    def _on_app_event(self, node: int, kind: str, payload: tuple, now: float) -> None:
        if kind == "granted":
            _, req_seq = payload
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
        if not 0 <= node < self.n:
            raise ConfigError(f"node {node} out of range")
        driver = self.drivers[node]
        if driver.crashed or node in self._waiting:
            return
        seq = self.drivers[node].core.req_seq + 1
        self._waiting[node] = seq
        self.responsiveness.on_request(node, seq, self.sim.now)
        if self.fairness is not None:
            self.fairness.on_request(node, seq, self.sim.now)
        driver.request()

    def release(self, node: int) -> None:
        """Release a held grant (hold_until_release mode)."""
        self.drivers[node].release()

    def start(self) -> None:
        """Start every node (idempotent)."""
        if self._started:
            return
        self._started = True
        for driver in self.drivers.values():
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

    # -- failure / audit helpers --------------------------------------------------------

    def crash(self, node: int) -> None:
        """Crash-stop a node."""
        self.drivers[node].crash()

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
