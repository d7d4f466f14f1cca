"""Node supervision for the asyncio runtime: liveness read off the
traffic, request-timed token-loss detection, state snapshots, and
automatic restart.

The paper's Section 5 sketch assumes "a time-out based detection is
available" and leaves the constant to the deployment.
:class:`ClusterSupervisor` supplies that detection, from three module
constants over the transport delay:

- every frame the network hands to a live node (the ``on_deliver``
  hook: data, acks, duplicates and beacons alike) proves its sender
  alive.  That hook sees nothing a crash or a partition stopped, so
  those silence a node exactly like any other traffic.  A peer is
  suspected once nothing of it has been delivered for ``suspect_after``
  = :data:`SUSPECT_MEANS` beats of ``max(5 delays, 1 ms)`` (92.1 delays:
  the silence a phi-8 accrual detector tolerates at that steady beat);
- only a live member whose frames nobody has received for a quarter of
  ``suspect_after`` sends a :class:`~repro.core.messages.HeartbeatMsg`
  beacon to its ring neighbours, so a node whose traffic flows never
  beacons.  "Received", not "sent": a node that keeps sending to a
  crashed or partitioned peer is still unheard, and beacons;
- each node's last :data:`WAIT_WINDOW` request-to-grant waits, in
  message delays, feed the fault-tolerant core's
  ``regen_delay_provider``: a requester suspects the token lost once it
  has waited :data:`SUSPECT_MEANS` times its mean wait, never sooner
  than the configured ``regen_timeout``.  The paper times the requester
  ("until some other node y needs the token"), and so does this: how
  slowly an *unwanted* token circulates (``idle_pause``) does not enter
  it, and a wait that spanned a census or a regeneration times a
  recovery, not the token, so it is left out;
- suspected peers are pushed into every live core's ``suspected`` set,
  so rotation and loans route around them (and are cleared again once
  their frames arrive again);
- a crashed node is restarted ``max(20 delays, 2 ms)`` after its
  suspicion, restored from the supervisor's last **snapshot** of its
  durable state (epoch, visit clock — never ``has_token``: a crashed
  holder's token is genuinely lost and the census/regeneration machinery
  recovers it), under a bumped reliability incarnation, up to
  :data:`MAX_RESTARTS` times; past that budget a ``gave_up`` event is
  logged once and the node is left down.

The supervisor is one coroutine that wakes every quarter of
``suspect_after``, or sooner when a peer's suspicion deadline or a
restart falls due.  Everything is deterministic under :mod:`repro.aio.virtualtime`:
the supervisor introduces no randomness of its own.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.core.cluster import Cluster
from repro.core.messages import HeartbeatMsg
from repro.core.regeneration import Regeneration
from repro.sim.driver import NodeDriver

__all__ = ["ClusterSupervisor"]

#: Mean waits (or beats) of silence before suspicion: where an
#: exponential tail reaches phi 8, i.e. odds of 1 in 10**8 that the
#: awaited frame or grant is merely late (8 ln 10 = 18.42).
SUSPECT_MEANS = 8.0 * math.log(10.0)
#: Restarts one node gets before the supervisor leaves it down.
MAX_RESTARTS = 5
#: Grant waits per node the mean is taken over.
WAIT_WINDOW = 64

#: The supervisor wakes at least once per this fraction of
#: ``suspect_after``, and a live node beacons once nothing of it was heard
#: for as long: a silent node is heard again within half of
#: ``suspect_after``, so one lost beacon still leaves it unsuspected.
SILENT_FRACTION = 0.25


class ClusterSupervisor:
    """Watches a cluster on an event loop, restarts crashed nodes, and
    feeds adaptive failure detection into the protocol cores."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        delay = cluster.network.delay
        self.restart_delay = max(20.0 * delay, 2e-3)
        #: Silence after which a peer is suspected.
        self.suspect_after = SUSPECT_MEANS * max(5.0 * delay, 1e-3)
        #: Silence after which a live node beacons; the longest sleep.
        self.beacon_after = SILENT_FRACTION * self.suspect_after
        #: When a frame from each node was last delivered to another.
        self.heard: Dict[int, float] = {}
        #: Each node's latest request-to-grant waits, in delays; their
        #: mean drives ``core.regen_delay_provider``.
        self.waits: Dict[int, Deque[float]] = {}
        self.suspected: Set[int] = set()
        self.restarts: Dict[int, int] = {}
        self.events: List[dict] = []
        self._snapshots: Dict[int, dict] = {}
        self._restart_at: Dict[int, float] = {}
        #: Crashed nodes past their restart budget, ``gave_up`` logged.
        self._given_up: Set[int] = set()
        self._hb_seq = 0
        self._time = cluster.sim.time
        self._task: Optional[asyncio.Task] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Wire every driver (current and future) and begin supervising."""
        if self._task is not None:
            return
        # Read once per delivered frame: bind the loop's clock itself.
        self._time = asyncio.get_running_loop().time
        self.cluster.network.on_deliver.append(self._on_deliver)
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
        # A node joining or reborn is heard now: it gets a full
        # ``suspect_after`` to be heard again.
        self.heard[node] = self._time()
        driver.on_control.append(self._heartbeat_sink)
        driver.subscribe(self._on_app_event)
        core = driver.core
        if isinstance(core, Regeneration):
            # Suspicion is the regeneration layer's business: a row
            # without it neither fences nor mints, and is left to behave
            # under a crash exactly as the plain protocol does.
            waits = self.waits.setdefault(node, deque(maxlen=WAIT_WINDOW))
            core.regen_delay_provider = self._make_delay_provider(waits)
            core.alive_provider = self._alive_view

    def _on_deliver(self, src: int, dst: int, msg: object) -> None:
        if src != dst:
            self.heard[src] = self._time()

    def _heartbeat_sink(self, src: int, msg: object) -> bool:
        # Its delivery already stamped ``heard``; runtime traffic never
        # reaches the core.
        return isinstance(msg, HeartbeatMsg)

    @staticmethod
    def _make_delay_provider(waits: Deque[float]):
        def provider() -> Optional[float]:
            if len(waits) < 3:
                return None  # too little wait history: the config decides
            return SUSPECT_MEANS * (sum(waits) / len(waits))

        return provider

    def _alive_view(self) -> set:
        """Peers with fresh liveness evidence (heard lately, not
        crash-stopped) — wired into every core's ``alive_provider`` so
        routing trusts delivered frames over stale suspicion gossip."""
        return {peer for peer, driver in self.cluster.drivers.items()
                if not driver.crashed and peer not in self.suspected}

    def _on_app_event(self, node: int, kind: str, payload: tuple,
                      now: float) -> None:
        if kind == "granted":
            core = self.cluster.drivers[node].core
            if isinstance(core, Regeneration) and core.granted_since is not None:
                # Core timers run in message-delay units: so do the waits.
                wait = ((now - core.granted_since)
                        / max(self.cluster.network.delay, 1e-6))
                self.waits[node].append(max(wait, 1e-6))
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
        now = self._time()
        while True:
            await asyncio.sleep(self._next_wake(now) - self._time())
            now = self._time()
            self._send_beacons(now)
            self._update_suspicions(now)
            self._maybe_restart(now)

    def _next_wake(self, now: float) -> float:
        """A quarter of ``suspect_after`` away, or sooner: the suspicion
        deadline of an unsuspected member, or a restart."""
        view = self.cluster.membership.view
        return min([now + self.beacon_after,
                    *(self.heard[node] + self.suspect_after
                      for node in self.cluster.drivers
                      if node in view and node not in self.suspected),
                    *self._restart_at.values()])

    def _send_beacons(self, now: float) -> None:
        view = self.cluster.membership.view
        due = [node for node, driver in self.cluster.drivers.items()
               if not driver.crashed and node in view
               and now >= self.heard[node] + self.beacon_after]
        if not due:
            return
        self._hb_seq += 1
        for node in due:
            beat = HeartbeatMsg(
                sender=node, seq=self._hb_seq,
                last_visit=self.cluster.drivers[node].core.last_visit)
            for dst in {view.succ(node), view.pred(node)} - {node}:
                self.cluster.network.send(node, dst, beat)

    def _update_suspicions(self, now: float) -> None:
        view = self.cluster.membership.view
        current = {peer for peer in self.cluster.drivers
                   if peer in view
                   and now >= self.heard[peer] + self.suspect_after}
        newly, cleared = current - self.suspected, self.suspected - current
        self.suspected = current
        for peer in sorted(newly):
            self.events.append({"t": now, "event": "suspect", "node": peer})
        for peer in sorted(cleared):
            self.events.append({"t": now, "event": "clear", "node": peer})
        # Sync every live core to the traffic-proven view on *every*
        # wake, not just on transitions: token messages gossip their
        # holder's ``suspects`` tuple, so one stale in-flight token can
        # re-infect the ring right after a one-shot clear — and a node
        # everyone still suspects is skipped by rotation and loans
        # forever, starving it.  Delivered frames are the fresher
        # evidence.
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
            if (driver is None or not driver.crashed
                    or node in self._given_up):
                continue  # partitioned, not dead, or left down
            self._restart_at.setdefault(node, now + self.restart_delay)
        for node, deadline in sorted(self._restart_at.items()):
            driver = self.cluster.drivers.get(node)
            if driver is None or not driver.crashed:
                self._restart_at.pop(node, None)
                continue
            if now < deadline:
                continue
            self._restart_at.pop(node, None)
            if self.restarts.get(node, 0) >= MAX_RESTARTS:
                self._given_up.add(node)
                self.events.append(
                    {"t": now, "event": "gave_up", "node": node})
                continue
            self.restarts[node] = self.restarts.get(node, 0) + 1
            restore = self.snapshot_of(node)
            # The reborn driver is wired (and heard) as it is made.
            self.cluster.restart(node, restore=restore)
            self.events.append(
                {"t": now, "event": "restart", "node": node,
                 "attempt": self.restarts[node],
                 "restored": restore is not None})

    # -- reporting ------------------------------------------------------------

    def status(self) -> Dict[int, dict]:
        """Per-node supervision view (diagnostics, chaos reports)."""
        now = self._time()
        out: Dict[int, dict] = {}
        for node, driver in sorted(self.cluster.drivers.items()):
            out[node] = {
                "crashed": driver.crashed,
                "suspected": node in self.suspected,
                "restarts": self.restarts.get(node, 0),
                # Seconds since a frame of it was last delivered.
                "silence": round(now - self.heard.get(node, now), 6),
            }
        return out
