"""Cluster-shaped facade over the compiled engine.

``FastCluster`` exposes the subset of :class:`repro.core.cluster.Cluster`
that benchmarks, experiments and the differential tests use — ``build``,
``add_workload``, ``request``/``request_at``, ``run``, and the metrics
accessors — backed by :func:`repro.fastsim.compiled.compile_engine`
instead of the object driver stack.  Construction validates the
configuration against the fast path's support matrix and raises
:class:`~repro.errors.FastSimUnsupportedError` for anything outside it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, FastSimUnsupportedError
from repro.fastsim.compiled import compile_engine
from repro.fastsim.state import ArrayState, unsupported_reason
from repro.metrics.responsiveness import ResponsivenessTracker
from repro.sim.network import DelayModel
from repro.workload.generators import FixedRateWorkload, SingleShotWorkload

__all__ = ["FastCluster"]


class FastCluster:
    """N array-compiled protocol nodes over a fused network/event loop."""

    def __init__(
        self,
        protocol: str,
        n: int,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        delay: Optional[DelayModel] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        digest: bool = False,
    ) -> None:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        self.config = config if config is not None else ProtocolConfig()
        self.config.n = n
        self.config.validate()
        reason = unsupported_reason(protocol, self.config, delay)
        if reason is not None:
            raise FastSimUnsupportedError(reason)
        self.protocol = protocol
        self.n = n
        self.state = ArrayState(protocol, n, self.config, seed=seed,
                                delay=delay, loss_rate=loss_rate,
                                dup_rate=dup_rate, digest=digest)
        self.engine = compile_engine(self.state)
        self._responsiveness: Optional[ResponsivenessTracker] = None

    @classmethod
    def build(cls, protocol: str, n: int, **kwargs: object) -> "FastCluster":
        """Mirror of ``Cluster.build`` (protocol name + keyword config)."""
        return cls(protocol, n, **kwargs)  # type: ignore[arg-type]

    # -- public API ---------------------------------------------------------

    def add_workload(self, workload: object) -> None:
        """Attach a workload generator.

        Only the generators the fast path replicates draw-for-draw are
        accepted; others raise :class:`FastSimUnsupportedError`.
        """
        if isinstance(workload, FixedRateWorkload):
            self.engine.add_fixed_rate(workload.mean_interval)
        elif isinstance(workload, SingleShotWorkload):
            for time, node in workload.events:
                self.engine.request_at(time, node)
        else:
            raise FastSimUnsupportedError(
                f"workload {type(workload).__name__} is not compiled; "
                f"use the object Cluster")

    def request(self, node: int) -> None:
        """Make ``node`` ready immediately (same semantics as Cluster)."""
        self.engine.request(node)

    def request_at(self, time: float, node: int) -> None:
        """Schedule a request at an absolute simulation time."""
        self.engine.request_at(time, node)

    def run(
        self,
        rounds: Optional[int] = None,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        grants: Optional[int] = None,
    ) -> None:
        """Run until any bound is hit; see ``Cluster.run``."""
        self.engine.run(rounds=rounds, until=until, max_events=max_events,
                        grants=grants)
        self.engine.sync()
        self._responsiveness = None  # applog grew; rebuild lazily

    def start(self) -> None:
        """Start the nodes (idempotent); ``run`` calls this implicitly."""
        self.engine.start()

    # -- metrics ------------------------------------------------------------

    @property
    def responsiveness(self) -> ResponsivenessTracker:
        """Definition-3 tracker, rebuilt from the applog on demand.

        The compiled loop records ``(kind, node, req_seq, time)`` tuples
        instead of calling the tracker inline (a method call per request
        would cost more than the whole dispatch); replaying them through a
        real tracker afterwards yields the identical sample stream because
        the applog preserves event order.
        """
        if self._responsiveness is None:
            tracker = ResponsivenessTracker()
            for kind, node, req_seq, time in self.state.applog:
                if kind == 0:
                    tracker.on_request(node, req_seq, time)
                else:
                    tracker.on_grant(node, req_seq, time)
            self._responsiveness = tracker
        return self._responsiveness

    @property
    def executed_total(self) -> int:
        """Kernel events executed (mirrors ``sim.executed_total``)."""
        return self.state.executed_total

    @property
    def sent_total(self) -> int:
        """Messages sent (mirrors ``cluster.messages.total``)."""
        return self.state.sent_total

    @property
    def sent_by_type(self) -> dict:
        """Send counts per message type (zero counts omitted, like the
        object cluster's counter, which only knows types it has seen)."""
        return {k: v for k, v in self.state.sent_by_type.items() if v}

    @property
    def rounds(self) -> int:
        """Completed token circulations (from the visit clock)."""
        return self.state.rounds_seen

    @property
    def grants(self) -> int:
        """Requests satisfied."""
        return self.state.grants_count

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.state.now

    @property
    def send_checksum(self) -> str:
        """CRC32 over the send stream (requires ``digest=True``)."""
        if not self.state.digest:
            raise FastSimUnsupportedError(
                "send_checksum needs digest=True at construction")
        return f"{self.state.send_crc & 0xFFFFFFFF:08x}"
