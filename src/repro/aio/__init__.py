"""Asyncio runtime: the same sans-IO protocol cores driven in real time,
with awaitable mutual exclusion, dynamic membership, and (since the
fault-tolerance PR) supervised crash-restart, reliable delivery over a
lossy transport, and deterministic virtual-time execution.  The network
and node driver under it are the simulation's own
(:class:`~repro.sim.network.Network`, :class:`~repro.sim.driver.NodeDriver`)
on the running loop's clock.

The names below resolve on first use (:mod:`repro._lazy`)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.aio.cluster": ["AioCluster"],
    "repro.aio.fabric": ["AioFabric"],
    "repro.aio.reliability": ["ReliabilityConfig", "ReliableChannel"],
    "repro.aio.supervisor": ["ClusterSupervisor", "RestartPolicy"],
    "repro.aio.virtualtime": ["VirtualClock", "run_virtual"],
})

__all__ = [
    "AioCluster",
    "AioFabric",
    "ReliabilityConfig",
    "ReliableChannel",
    "ClusterSupervisor",
    "RestartPolicy",
    "VirtualClock",
    "run_virtual",
]
