"""Discrete-event driver for sans-IO protocol cores.

The driver owns the IO boundary: it attaches a core to the network,
interprets its effects (sends, timers, application deliveries), and exposes
``request``/``release`` entry points.  Application events are fanned out to
subscriber callbacks — the cluster uses these for metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.core.base import ProtocolCore
from repro.core.effects import CancelTimer, Deliver, Effect, Send, SetTimer
from repro.errors import SimulationError
from repro.lint.sanitizer import ClusterSanitizer
from repro.sim.kernel import Event, Simulator
from repro.sim.network import Network

__all__ = ["NodeDriver"]


class NodeDriver:
    """Runs one protocol core inside the discrete-event simulation.

    When a :class:`~repro.lint.sanitizer.ClusterSanitizer` is attached
    (the cluster wires one by default, see ``REPRO_SANITIZE``), the driver
    reports every handled event to it so cluster-level safety invariants
    are audited as the simulation runs.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        core: ProtocolCore,
        sanitizer: Optional[ClusterSanitizer] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.core = core
        self.node_id = core.node_id
        self.sanitizer = sanitizer
        self._timers: Dict[Hashable, Event] = {}
        self._subscribers: List[Callable[[int, str, tuple, float], None]] = []
        self._crashed = False
        network.attach(self.node_id, self._on_network_message)
        if sanitizer is not None:
            sanitizer.register(core)

    # -- wiring ---------------------------------------------------------------

    def subscribe(self, callback: Callable[[int, str, tuple, float], None]) -> None:
        """Register ``callback(node_id, kind, payload, now)`` for application
        events delivered by the core."""
        self._subscribers.append(callback)

    def start(self) -> None:
        """Run the core's start handler (call once, after wiring)."""
        self._apply(self.core.on_start(self.sim.now), "on_start")

    # -- application entry points ------------------------------------------------

    def request(self) -> None:
        """The application at this node asks for the token."""
        if self._crashed:
            return
        self._apply(self.core.on_request(self.sim.now), "on_request")

    def release(self) -> None:
        """The application releases a held grant."""
        if self._crashed:
            return
        self._apply(self.core.on_release(self.sim.now), "on_release")

    # -- failure injection ---------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop this node: cancel timers, drop future deliveries."""
        self._crashed = True
        self.network.crash(self.node_id)
        if self.sanitizer is not None:
            self.sanitizer.mark_crashed(self.node_id)
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()

    def recover(self) -> None:
        """Clear the crash flag (the core keeps its pre-crash state unless
        the caller replaces it)."""
        self._crashed = False
        self.network.recover(self.node_id)
        if self.sanitizer is not None:
            self.sanitizer.mark_recovered(self.node_id)

    @property
    def crashed(self) -> bool:
        """True while this node is crash-stopped."""
        return self._crashed

    # -- effect interpretation ---------------------------------------------------

    def _on_network_message(self, src: int, msg: object) -> None:
        if self._crashed:
            return
        self._apply(self.core.on_message(src, msg, self.sim.now), "on_message", msg)

    def _on_timer(self, key: Hashable) -> None:
        if self._crashed:
            return
        self._timers.pop(key, None)
        self._apply(self.core.on_timer(key, self.sim.now), "on_timer", key)

    def _apply(
        self, effects: List[Effect], origin: str = "<direct>", payload: object = None
    ) -> None:
        # Hot path: effects are final dataclasses, so exact type checks are
        # both correct and cheaper than isinstance; Send dominates.
        node_id = self.node_id
        net_send = self.network.send
        for effect in effects:
            kind = type(effect)
            if kind is Send:
                net_send(node_id, effect.dst, effect.msg)
            elif kind is SetTimer:
                previous = self._timers.pop(effect.key, None)
                if previous is not None:
                    previous.cancel()
                self._timers[effect.key] = self.sim.schedule(
                    effect.delay, self._on_timer, effect.key
                )
            elif kind is CancelTimer:
                event = self._timers.pop(effect.key, None)
                if event is not None:
                    event.cancel()
            elif kind is Deliver:
                for callback in self._subscribers:
                    callback(node_id, effect.kind, effect.payload, self.sim.now)
            else:
                raise SimulationError(f"unknown effect {effect!r}")
        if self.sanitizer is not None:
            self.sanitizer.after_apply(self.core, origin, payload, self.sim.now)
