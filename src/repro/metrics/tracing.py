"""Structured tracing of protocol executions.

:class:`TraceRecorder` attaches to a cluster and records a typed event
stream — token hops, loans and returns, searches, grants — from which it
derives the quantities the paper argues about qualitatively:

- **token travel per grant** — hops the token makes between consecutive
  grants (the ring's weakness at light load);
- **search depth distribution** — forwards per gimme chain (Lemma 6's
  O(log N));
- **load balance** — per-node share of message traffic; the conclusion
  contrasts the ring's balance against tree roots' hotspots, and the
  :meth:`load_imbalance` ratio quantifies it (1.0 = perfectly even).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.messages import (
    GimmeMsg,
    LoanMsg,
    LoanReturnMsg,
    TokenMsg,
)
from repro.metrics.stats import mean, percentile

__all__ = ["TraceEvent", "TraceRecorder", "RecoveryTracker"]


class TraceEvent(NamedTuple):
    """One recorded protocol event."""

    time: float
    kind: str          # "hop" | "loan" | "loan_return" | "gimme" | "grant"
    src: int
    dst: int
    detail: Tuple = ()


class TraceRecorder:
    """Event-stream recorder + derived statistics for one cluster run."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.events: List[TraceEvent] = []
        self._sends_by_node: Dict[int, int] = {i: 0 for i in range(cluster.n)}
        self._hops_since_grant = 0
        self.travel_per_grant: List[int] = []
        self._search_depth: Dict[Tuple[int, int], int] = {}
        cluster.network.on_send.append(self._on_send)
        cluster.on_grant(self._on_grant)

    # -- ingestion --------------------------------------------------------------

    def _on_send(self, src: int, dst: int, msg: object) -> None:
        now = self.cluster.sim.now
        self._sends_by_node[src] = self._sends_by_node.get(src, 0) + 1
        if isinstance(msg, TokenMsg):
            self.events.append(TraceEvent(now, "hop", src, dst))
            self._hops_since_grant += 1
        elif isinstance(msg, LoanMsg):
            self.events.append(TraceEvent(
                now, "loan", src, dst, (msg.requester, msg.req_seq)))
            self._hops_since_grant += 1
        elif isinstance(msg, LoanReturnMsg):
            self.events.append(TraceEvent(now, "loan_return", src, dst))
            self._hops_since_grant += 1
        elif isinstance(msg, GimmeMsg):
            self.events.append(TraceEvent(
                now, "gimme", src, dst,
                (msg.requester, msg.req_seq, msg.span)))
            key = (msg.requester, msg.req_seq)
            self._search_depth[key] = self._search_depth.get(key, 0) + 1

    def _on_grant(self, node: int, req_seq: int, now: float) -> None:
        self.events.append(TraceEvent(now, "grant", node, node, (req_seq,)))
        self.travel_per_grant.append(self._hops_since_grant)
        self._hops_since_grant = 0

    # -- derived statistics --------------------------------------------------------

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    def mean_travel_per_grant(self) -> float:
        """Average token movements between consecutive grants."""
        return mean(self.travel_per_grant)

    def search_depths(self) -> List[int]:
        """Forwards per gimme chain (one entry per (requester, seq))."""
        return sorted(self._search_depth.values())

    def max_search_depth(self) -> int:
        """Deepest recorded search chain (Lemma 6 bounds this by log N)."""
        depths = self.search_depths()
        return depths[-1] if depths else 0

    def sends_by_node(self) -> Dict[int, int]:
        """Messages sent per node."""
        return dict(self._sends_by_node)

    def load_imbalance(self) -> float:
        """Max-to-mean ratio of per-node sends (1.0 = perfectly balanced;
        a parked virtual root drives this far above the ring's ~1)."""
        values = [v for v in self._sends_by_node.values()]
        avg = mean(values)
        if avg == 0:
            return 1.0
        return max(values) / avg

    def grant_latency_percentile(self, p: float) -> float:
        """Percentile of the cluster's waiting-time samples."""
        return percentile(self.cluster.responsiveness.waiting_samples, p)

    def timeline(self, start: float = 0.0,
                 end: Optional[float] = None) -> List[TraceEvent]:
        """Events within a virtual-time window."""
        if end is None:
            end = float("inf")
        return [e for e in self.events if start <= e.time <= end]

    def tail(self, k: int = 40) -> List[Dict]:
        """The last ``k`` events as plain dicts (violation repro files)."""
        return [
            {"t": e.time, "kind": e.kind, "src": e.src, "dst": e.dst,
             "detail": list(e.detail)}
            for e in self.events[-k:]
        ]

    def summary(self) -> Dict[str, float]:
        """One-dict overview for reports."""
        return {
            "hops": self.count("hop"),
            "loans": self.count("loan"),
            "gimmes": self.count("gimme"),
            "grants": self.count("grant"),
            "mean_travel_per_grant": self.mean_travel_per_grant(),
            "max_search_depth": float(self.max_search_depth()),
            "load_imbalance": self.load_imbalance(),
        }


class RecoveryTracker:
    """Mean-time-to-recovery bookkeeping for the fault-tolerant runtime.

    Pairs each injected fault with the instant service is proven restored
    and keeps the interval.  Keys are caller-chosen (a node id, a request
    label); a repeated :meth:`fault` on an already-open key keeps the
    *first* timestamp — the clock runs from the original outage, not the
    latest aftershock.  Closing a key that was never opened is a no-op,
    so recovery signals can be wired unconditionally.

    Works on any monotonic clock: the DES ``sim.now``, the virtual asyncio
    loop, or wall time — the tracker only ever subtracts.
    """

    def __init__(self) -> None:
        self._open: Dict[object, float] = {}
        #: Closed fault-to-recovery intervals, in clock units.
        self.samples: List[float] = []

    def fault(self, key: object, now: float) -> None:
        """A fault on ``key`` was injected/detected at ``now``."""
        self._open.setdefault(key, now)

    def recovered(self, key: object, now: float) -> None:
        """Service on ``key`` is proven back; closes the open interval."""
        start = self._open.pop(key, None)
        if start is not None:
            self.samples.append(now - start)

    def open_faults(self) -> List[object]:
        """Keys with a fault still outstanding (unrecovered at readout)."""
        return sorted(self._open, key=repr)

    def count(self) -> int:
        return len(self.samples)

    def mttr(self) -> float:
        """Mean time to recovery over the closed intervals."""
        return mean(self.samples)

    def max_ttr(self) -> float:
        """Worst recorded recovery time."""
        return max(self.samples) if self.samples else 0.0

    def ingest_supervisor_events(self, events: List[Dict]) -> None:
        """Fold a :class:`~repro.aio.supervisor.ClusterSupervisor` event
        log into the tracker: ``suspect`` opens a node's outage, ``clear``
        (its frames heard again after repair) closes it."""
        for event in events:
            if event["event"] == "suspect":
                self.fault(("node", event["node"]), event["t"])
            elif event["event"] == "clear":
                self.recovered(("node", event["node"]), event["t"])

    def summary(self) -> Dict[str, float]:
        return {
            "recoveries": float(self.count()),
            "mttr": self.mttr(),
            "max_ttr": self.max_ttr(),
            "unrecovered": float(len(self._open)),
        }
