"""Asyncio runtime: the same sans-IO protocol cores driven in real time,
with awaitable mutual exclusion, dynamic membership, and (since the
fault-tolerance PR) supervised crash-restart, reliable delivery over a
lossy transport, and deterministic virtual-time execution."""

from repro.aio.cluster import AioCluster
from repro.aio.driver import AioNodeDriver
from repro.aio.fabric import AioFabric
from repro.aio.reliability import ReliabilityConfig, ReliableChannel
from repro.aio.supervisor import ClusterSupervisor, RestartPolicy
from repro.aio.transport import AioTransport
from repro.aio.virtualtime import VirtualClock, run_virtual

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
