"""Node supervision for the asyncio runtime: heartbeats, phi-accrual
failure detection, state snapshots, and automatic restart.

The paper's Section 5 sketch assumes "a time-out based detection is
available" and leaves the constant to the deployment.
:class:`ClusterSupervisor` supplies that detection *adaptively*:

- every live node emits periodic :class:`~repro.core.messages.HeartbeatMsg`
  beacons to its ring neighbours **over the real transport** (so crashes
  and partitions silence them exactly like any other traffic), and a
  :class:`~repro.faults.detector.PhiAccrualDetector` per peer turns the
  observed arrival cadence (each beat once, whichever neighbour it
  reached) into a continuous suspicion level;
- a second detector per node learns how long that node's own requests
  wait for their grant, in message delays, and is wired into the
  fault-tolerant core's ``regen_delay_provider``: a requester suspects the
  token lost once it has waited ``phi_threshold``·ln 10 times its mean
  wait (≈ 18.4 at phi 8), never sooner than the configured
  ``regen_timeout``.  The paper times the requester ("until some other
  node y needs the token"), and so does this: how slowly an *unwanted*
  token circulates (``idle_pause``) does not enter it, and a wait that
  spanned a census or a regeneration times a recovery, not the token,
  so it is left out;
- peers whose phi crosses the threshold are pushed into every live core's
  ``suspected`` set, so rotation and loans route around them (and are
  cleared again once their heartbeats resume);
- a crashed node is restarted after ``restart_delay``, restored from the
  supervisor's last **snapshot** of its durable state (epoch, visit clock
  — never ``has_token``: a crashed holder's token is genuinely lost and
  the census/regeneration machinery recovers it), under a bumped
  reliability incarnation, up to ``max_restarts`` times.

Everything is deterministic under :mod:`repro.aio.virtualtime`: the
supervisor introduces no randomness of its own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.cluster import Cluster
from repro.core.messages import HeartbeatMsg
from repro.core.regeneration import Regeneration
from repro.faults.detector import PhiAccrualDetector
from repro.sim.driver import NodeDriver

__all__ = ["RestartPolicy", "ClusterSupervisor"]


@dataclass
class RestartPolicy:
    """Supervision knobs.  Zero-valued timings scale with the transport
    delay (heartbeats every 5 delays, restart after 20)."""

    restart_delay: float = 0.0
    max_restarts: int = 5
    heartbeat_interval: float = 0.0
    phi_threshold: float = 8.0
    snapshot_restore: bool = True


class ClusterSupervisor:
    """Watches a cluster on an event loop, restarts crashed nodes, and
    feeds adaptive failure detection into the protocol cores."""

    def __init__(self, cluster: Cluster,
                 policy: Optional[RestartPolicy] = None) -> None:
        self.cluster = cluster
        self.policy = policy if policy is not None else RestartPolicy()
        delay = cluster.network.delay
        self.interval = (self.policy.heartbeat_interval
                         if self.policy.heartbeat_interval > 0
                         else max(5.0 * delay, 1e-3))
        self.restart_delay = (self.policy.restart_delay
                              if self.policy.restart_delay > 0
                              else max(20.0 * delay, 2e-3))
        #: Silence after which a peer with too little phi history is
        #: suspected anyway (covers crash-before-first-heartbeat).
        self.fallback_timeout = 10.0 * self.interval
        #: Liveness detectors, one per peer, fed by heartbeat arrivals.
        self.peer_detectors: Dict[int, PhiAccrualDetector] = {}
        #: The last heartbeat ``seq`` observed per sender: a beat reaches
        #: both ring neighbours, and its second copy is no new arrival.
        self._beats_seen: Dict[int, int] = {}
        #: Grant-wait detectors, one per node, fed with that node's
        #: request-to-grant waits in delays; wired into
        #: ``core.regen_delay_provider``.
        self.wait_detectors: Dict[int, PhiAccrualDetector] = {}
        self.suspected: Set[int] = set()
        self.restarts: Dict[int, int] = {}
        self.events: List[dict] = []
        self._snapshots: Dict[int, dict] = {}
        self._restart_at: Dict[int, float] = {}
        self._hb_seq = 0
        self._task: Optional[asyncio.Task] = None
        self._started_at = 0.0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Wire every driver (current and future) and begin supervising."""
        if self._task is not None:
            return
        self._started_at = self.cluster.sim.time()
        self.cluster.on_driver.append(self._wire)
        for node, driver in self.cluster.drivers.items():
            self._wire(node, driver)
        self._task = asyncio.create_task(self._monitor(), name="supervisor")

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    # -- wiring ---------------------------------------------------------------

    def _wire(self, node: int, driver: NodeDriver) -> None:
        driver.on_control.append(self._heartbeat_sink)
        driver.subscribe(self._on_app_event)
        core = driver.core
        if isinstance(core, Regeneration):
            # Suspicion is the regeneration layer's business: a row
            # without it neither fences nor mints, and is left to behave
            # under a crash exactly as the plain protocol does.
            detector = self.wait_detectors.setdefault(
                node, PhiAccrualDetector())
            core.regen_delay_provider = self._make_delay_provider(detector)
            core.alive_provider = self._alive_view

    def _heartbeat_sink(self, src: int, msg: object) -> bool:
        if not isinstance(msg, HeartbeatMsg):
            return False
        if self._beats_seen.get(msg.sender, 0) < msg.seq:
            self._beats_seen[msg.sender] = msg.seq
            detector = self.peer_detectors.get(msg.sender)
            if detector is None:
                detector = self.peer_detectors[msg.sender] = \
                    PhiAccrualDetector()
            detector.observe(self.cluster.sim.time())
        return True  # runtime traffic: never reaches the core

    def _make_delay_provider(self, detector: PhiAccrualDetector):
        def provider() -> Optional[float]:
            if detector.samples < 3:
                return None  # too little wait history: the config decides
            return detector.timeout_after(self.policy.phi_threshold)

        return provider

    def _alive_view(self) -> set:
        """Peers with fresh liveness evidence (heartbeats flowing, not
        crash-stopped) — wired into every core's ``alive_provider`` so
        routing trusts heartbeats over stale suspicion gossip."""
        return {peer for peer, driver in self.cluster.drivers.items()
                if not driver.crashed and peer not in self.suspected}

    def _on_app_event(self, node: int, kind: str, payload: tuple,
                      now: float) -> None:
        if kind == "granted":
            core = self.cluster.drivers[node].core
            if isinstance(core, Regeneration) and core.granted_since is not None:
                # Core timers run in message-delay units: so do the waits.
                self.wait_detectors[node].record(
                    (now - core.granted_since)
                    / max(self.cluster.network.delay, 1e-6))
        if kind in ("token_visit", "granted", "regenerated"):
            self._snapshot(node)

    def _snapshot(self, node: int) -> None:
        driver = self.cluster.drivers.get(node)
        if driver is None or driver.crashed:
            return
        core = driver.core
        # The durable part of the possession record.  ``has_token`` is
        # deliberately absent: resurrecting a crashed holder's token would
        # duplicate it whenever regeneration already ran.
        self._snapshots[node] = {
            "epoch": core.epoch, "last_visit": core.last_visit,
            "clock": core.clock, "round_no": core.round_no,
            "suspected": set(core.suspected),
        }

    def snapshot_of(self, node: int) -> Optional[dict]:
        """The latest durable-state snapshot taken for ``node``."""
        snap = self._snapshots.get(node)
        if snap is None:
            return None
        return {k: (set(v) if isinstance(v, set) else v)
                for k, v in snap.items()}

    # -- supervision loop -----------------------------------------------------

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            now = self.cluster.sim.time()
            self._send_heartbeats()
            self._update_suspicions(now)
            self._maybe_restart(now)

    def _send_heartbeats(self) -> None:
        view = self.cluster.membership.view
        self._hb_seq += 1
        for node, driver in list(self.cluster.drivers.items()):
            if driver.crashed or node not in view:
                continue
            beat = HeartbeatMsg(
                sender=node, seq=self._hb_seq,
                last_visit=driver.core.last_visit)
            for dst in {view.succ(node), view.pred(node)} - {node}:
                self.cluster.network.send(node, dst, beat)

    def _is_suspicious(self, peer: int, now: float) -> bool:
        detector = self.peer_detectors.get(peer)
        if detector is None:
            return now - self._started_at > self.fallback_timeout
        if detector.samples < 2:
            last = (detector.last_arrival if detector.last_arrival is not None
                    else self._started_at)
            return now - last > self.fallback_timeout
        return detector.suspicious(now, self.policy.phi_threshold)

    def _update_suspicions(self, now: float) -> None:
        view = self.cluster.membership.view
        current = {peer for peer in self.cluster.drivers
                   if peer in view and self._is_suspicious(peer, now)}
        newly, cleared = current - self.suspected, self.suspected - current
        self.suspected = current
        for peer in sorted(newly):
            self.events.append({"t": now, "event": "suspect", "node": peer})
        for peer in sorted(cleared):
            self.events.append({"t": now, "event": "clear", "node": peer})
        # Sync every live core to the heartbeat-proven view on *every*
        # tick, not just on transitions: token messages gossip their
        # holder's ``suspects`` tuple, so one stale in-flight token can
        # re-infect the ring right after a one-shot clear — and a node
        # everyone still suspects is skipped by rotation and loans
        # forever, starving it.  Heartbeats are the fresher evidence.
        alive = {peer for peer, driver in self.cluster.drivers.items()
                 if peer in view and peer not in current
                 and not driver.crashed}
        for node, driver in self.cluster.drivers.items():
            core = driver.core
            if driver.crashed or not isinstance(core, Regeneration):
                continue
            core.suspected |= current - {node}
            core.suspected -= alive

    def _maybe_restart(self, now: float) -> None:
        for node in sorted(self.suspected):
            driver = self.cluster.drivers.get(node)
            if driver is None or not driver.crashed:
                continue  # partitioned, not dead: nothing to restart
            self._restart_at.setdefault(node, now + self.restart_delay)
        for node, deadline in sorted(self._restart_at.items()):
            driver = self.cluster.drivers.get(node)
            if driver is None or not driver.crashed:
                self._restart_at.pop(node, None)
                continue
            if now < deadline:
                continue
            self._restart_at.pop(node, None)
            if self.restarts.get(node, 0) >= self.policy.max_restarts:
                self.events.append(
                    {"t": now, "event": "gave_up", "node": node})
                continue
            self.restarts[node] = self.restarts.get(node, 0) + 1
            restore = (self.snapshot_of(node)
                       if self.policy.snapshot_restore else None)
            self.cluster.restart(node, restore=restore)
            # Fresh liveness history, primed with "seen now": the reborn
            # node gets a full fallback window to resume heartbeats.
            detector = PhiAccrualDetector()
            detector.observe(now)
            self.peer_detectors[node] = detector
            self.events.append(
                {"t": now, "event": "restart", "node": node,
                 "attempt": self.restarts[node],
                 "restored": restore is not None})

    # -- reporting ------------------------------------------------------------

    def status(self) -> Dict[int, dict]:
        """Per-node supervision view (diagnostics, chaos reports)."""
        now = self.cluster.sim.time()
        out: Dict[int, dict] = {}
        for node, driver in sorted(self.cluster.drivers.items()):
            detector = self.peer_detectors.get(node)
            out[node] = {
                "crashed": driver.crashed,
                "suspected": node in self.suspected,
                "restarts": self.restarts.get(node, 0),
                "phi": round(detector.phi(now), 3) if detector else 0.0,
            }
        return out
