"""Asyncio runtime: the same sans-IO protocol cores driven in real time,
with awaitable mutual exclusion, dynamic membership, and (since the
fault-tolerance PR) supervised crash-restart, reliable delivery over a
lossy transport, and deterministic virtual-time execution.

The names below resolve on first use (:mod:`repro._lazy`)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.aio.cluster": ["AioCluster"],
    "repro.aio.driver": ["AioNodeDriver"],
    "repro.aio.fabric": ["AioFabric"],
    "repro.aio.reliability": ["ReliabilityConfig", "ReliableChannel"],
    "repro.aio.supervisor": ["ClusterSupervisor", "RestartPolicy"],
    "repro.aio.transport": ["AioTransport"],
    "repro.aio.virtualtime": ["VirtualClock", "run_virtual"],
})

__all__ = [
    "AioCluster",
    "AioFabric",
    "AioNodeDriver",
    "AioTransport",
    "ReliabilityConfig",
    "ReliableChannel",
    "ClusterSupervisor",
    "RestartPolicy",
    "VirtualClock",
    "run_virtual",
]
