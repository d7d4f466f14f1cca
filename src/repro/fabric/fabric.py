"""TokenFabric: N independent token instances over one shared kernel.

Today's :class:`~repro.core.cluster.Cluster` manages exactly one token on
one ring.  A fabric owns thousands of such instances — one per string
lock key — multiplexed over a single :class:`~repro.sim.kernel.Simulator`
through the batched scheduling layer in :mod:`repro.fabric.scheduling`.

Each key gets a *lane*: a full ``Cluster`` (cores, network, sanitizer,
tracker) whose ``sim`` is the fabric's shared :class:`SimView`.  Lanes are
bit-for-bit equivalent to standalone clusters with the same seed (see
``tests/fabric/test_determinism.py``) because batching preserves per-lane
event times and relative order, and each lane keeps a private RNG.

Hot-path engineering:

* **Interned keys** — string keys are interned once to dense integer ids;
  the per-request/per-grant path touches only list slots.
* **Batched dispatch** — all lane events share per-time FIFO buckets, so
  the kernel heap scales with in-flight traffic, not key count.
* **Amortized timers** — 10k idle lanes parked on ``idle_pause`` timers
  that share a wake time cost one heap entry total, ≈ zero events until
  demand arrives.
* **O(1) metrics** — grants feed :class:`KeyedMetricsRegistry` running
  aggregates plus a log-bucket histogram for fabric-level p50/p99.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List, Optional

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, SimulationError
from repro.fabric.scheduling import BatchScheduler, SimView
from repro.metrics.keyed import KeyedMetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.network import DelayModel

__all__ = ["TokenFabric"]


class TokenFabric:
    """A keyed collection of token-passing instances on one event loop."""

    def __init__(
        self,
        seed: int = 0,
        sanitize: bool = True,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)  # fabric-level draws (keyed workloads)
        self.kernel = Simulator()
        self.scheduler = BatchScheduler(self.kernel)
        self.sim: SimView = SimView(self.scheduler)
        # Same flattening as SimView: fabric-level posts go straight to the
        # batch layer (the method below stays as the documented surface).
        self.post = self.scheduler.post
        self.metrics = KeyedMetricsRegistry()
        self._sanitize = sanitize
        self._ids: Dict[str, int] = {}
        self._keys: List[str] = []
        self._lanes: List[Cluster] = []
        self._workloads: List = []
        self._started = False

    # -- construction --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lanes)

    @property
    def keys(self) -> List[str]:
        """Key strings in id order (do not mutate)."""
        return self._keys

    def lane_seed(self, key: str) -> int:
        """Deterministic per-key seed: stable across runs and key order."""
        return zlib.crc32(f"{self.seed}|{key}".encode("utf-8"))

    def add_key(
        self,
        key: str,
        protocol: str = "binary_search",
        n: int = 4,
        seed: Optional[int] = None,
        config: Optional[ProtocolConfig] = None,
        delay: Optional[DelayModel] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
    ) -> Cluster:
        """Create the lane for ``key``; returns its :class:`Cluster`.

        The lane is a complete cluster (own RNG seeded from ``seed`` or
        :meth:`lane_seed`, own network, own metrics) sharing only the
        fabric's scheduler.  Keys added after :meth:`start` come up live
        at the current virtual time.
        """
        if key in self._ids:
            raise ConfigError(f"duplicate fabric key {key!r}")
        if seed is None:
            seed = self.lane_seed(key)
        lane = Cluster.build(
            protocol, n, seed=seed, config=config, delay=delay,
            loss_rate=loss_rate, dup_rate=dup_rate,
            sanitize=self._sanitize,
            sim=self.sim,
        )
        kid = self.metrics.add_key(key)
        self._ids[key] = kid
        self._keys.append(key)
        self._lanes.append(lane)
        tracker = lane.responsiveness

        def _on_grant(node: int, req_seq: int, now: float,
                      _kid: int = kid, _tracker=tracker) -> None:
            # Fires after the lane tracker ingested the grant, so the
            # freshest samples are at the tails of its lists.
            self.metrics.on_grant(
                _kid,
                _tracker.responsiveness_samples[-1],
                _tracker.waiting_samples[-1],
            )
            for workload in self._workloads:
                workload.on_grant(_kid, node, req_seq, now)

        lane.on_grant(_on_grant)
        if self._started:
            lane.start()
        return lane

    def key_id(self, key: str) -> int:
        """The dense integer id interned for ``key``."""
        return self._ids[key]

    def lane(self, key: str) -> Cluster:
        """The :class:`Cluster` behind ``key``."""
        return self._lanes[self._ids[key]]

    def lanes(self) -> List[Cluster]:
        """All lanes in key-id order (do not mutate)."""
        return self._lanes

    # -- traffic -------------------------------------------------------------

    def request(self, key: str, node: int = 0) -> None:
        """Make ``node`` ready on ``key``'s lane (arrival on an already
        waiting node stands, exactly like ``Cluster.request``)."""
        self.request_id(self._ids[key], node)

    def request_id(self, kid: int, node: int = 0) -> None:
        """Integer-id fast path for :meth:`request` (hot loop of keyed
        workloads).  Counts the *offered* arrival; drops (arrivals on a
        node already waiting) show up as ``requests - grants``."""
        self.metrics.on_request(kid)
        self._lanes[kid].request(node)

    def release(self, key: str, node: int) -> None:
        """Release a held grant (hold_until_release lanes)."""
        self.lane(key).release(node)

    def add_workload(self, workload) -> None:
        """Attach a fabric-level keyed workload (see
        :mod:`repro.workload.keyed`).  Per-key workloads attach to lanes
        directly via ``fabric.lane(key).add_workload(...)``."""
        self._workloads.append(workload)
        workload.bind(self)

    def post(self, delay: float, fn: Callable, *args) -> None:
        """Schedule a fabric-level callback through the batch layer (so it
        counts toward ``executed_total`` and orders like lane events)."""
        self.sim.post(delay, fn, *args)

    # -- execution -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def executed_total(self) -> int:
        """Logical events fired across all lanes (the fabric analogue of
        ``sim.executed_total``; the raw kernel count only sees buckets)."""
        return self.scheduler.executed_total

    @property
    def sent_total(self) -> int:
        """Messages sent across all lanes (O(keys) roll-up)."""
        return sum(lane.messages.total for lane in self._lanes)

    def start(self) -> None:
        """Start every lane (idempotent)."""
        if self._started:
            return
        self._started = True
        for lane in self._lanes:
            lane.start()

    # Kernel events per bound check in run(); fixed so a run's stop point —
    # and therefore its checksums — never depend on tuning.
    _CHUNK = 512

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        grants: Optional[int] = None,
    ) -> None:
        """Run until a bound is hit: virtual time, logical events fired, or
        fabric-wide grants.  Bounds are checked between fixed-size kernel
        chunks, so ``grants``/``max_events`` may overshoot slightly — but
        deterministically."""
        if until is None and max_events is None and grants is None:
            raise SimulationError("run() needs at least one stopping bound")
        self.start()
        budget = max_events if max_events is not None else 2_000_000_000
        scheduler = self.scheduler
        kernel_run = self.kernel.run
        total_grants = self.metrics
        while budget > 0:
            if grants is not None and total_grants.total_grants >= grants:
                break
            before = scheduler.executed_total
            executed = kernel_run(until=until, max_events=self._CHUNK)
            budget -= scheduler.executed_total - before
            if executed < self._CHUNK:
                break  # queue drained or `until` reached

    # -- audit ---------------------------------------------------------------

    def token_census(self) -> Dict[str, int]:
        """Per-key live-token counts (see ``Cluster.token_census`` for the
        at-rest caveat)."""
        return {key: self._lanes[kid].token_census()
                for key, kid in self._ids.items()}

    def assert_single_token_per_key(self) -> None:
        """Raise when any lane shows more than one token at rest."""
        for lane in self._lanes:
            lane.assert_single_token()

    def summary(self) -> Dict[str, object]:
        """Fabric-level metrics roll-up plus execution counters."""
        doc = self.metrics.summary()
        doc["events"] = self.executed_total
        doc["messages"] = self.sent_total
        doc["now"] = self.now
        return doc
