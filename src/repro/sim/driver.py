"""Discrete-event driver for sans-IO protocol cores.

The driver owns the IO boundary: it attaches a core to the network, is the
core's port (:class:`~repro.core.effects.DriverPort`: sends go to
:meth:`Network.send`, timers to :meth:`Simulator.schedule`), and exposes
``request``/``release`` entry points.  Application events are fanned out to
subscriber callbacks — the cluster uses these for metrics.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.base import ProtocolCore
from repro.core.effects import DriverPort
from repro.lint.sanitizer import ClusterSanitizer
from repro.sim.kernel import Event, Simulator
from repro.sim.network import Network

__all__ = ["NodeDriver"]


class NodeDriver(DriverPort):
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
        super().__init__(core, sanitizer)
        self.sim = sim
        self.network = network
        self._crashed = False
        network.attach(self.node_id, self._on_network_message)

    def start(self) -> None:
        """Run the core's start handler (call once, after wiring)."""
        self._apply("on_start", None, self.core.on_start, self.sim.now)

    # -- application entry points ------------------------------------------------

    def request(self) -> None:
        """The application at this node asks for the token."""
        if self._crashed:
            return
        self._apply("on_request", None, self.core.on_request, self.sim.now)

    def release(self) -> None:
        """The application releases a held grant."""
        if self._crashed:
            return
        self._apply("on_release", None, self.core.on_release, self.sim.now)

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

    # -- events in, port calls out -----------------------------------------------

    def _on_network_message(self, src: int, msg: object) -> None:
        if self._crashed:
            return
        self._apply("on_message", msg, self.core.on_message, src, msg,
                    self.sim.now)

    def _on_timer(self, key: Hashable) -> None:
        if self._crashed:
            return
        self._timers.pop(key, None)
        self._apply("on_timer", key, self.core.on_timer, key, self.sim.now)

    def _send(self, dst: int, msg: object) -> None:
        self.network.send(self.node_id, dst, msg)

    def _schedule(self, key: Hashable, delay: float) -> Event:
        return self.sim.schedule(delay, self._on_timer, key)

    def _now(self) -> float:
        return self.sim.now
