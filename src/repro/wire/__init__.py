"""Real-socket wire layer: TCP transport, lock service, load generation.

``repro.wire`` takes the asyncio runtime onto actual sockets.  The
:class:`WireTransport` implements the in-memory
:class:`~repro.aio.transport.AioTransport` contract over loopback TCP
(length-prefixed versioned frames, one multiplexed connection per peer,
bounded write queues, reconnect with jittered backoff), so ARQ
reliability, phi-accrual supervision, and the invariant oracle attach
without modification.  On top of it, :class:`LockServiceServer` exposes
acquire/release/status as a network API and :class:`LockClient` /
:class:`LoadGenerator` drive it with open/closed-loop workloads.
"""

from repro.wire.client import LoadGenerator, LoadReport, LockClient
from repro.wire.codec import (
    MAX_FRAME,
    WIRE_VERSION,
    decode_body,
    encode_frame,
    read_frame,
    register_message,
    registered_messages,
)
from repro.wire.server import LockServiceServer
from repro.wire.service import (
    AcquireReply,
    AcquireRequest,
    ReleaseReply,
    ReleaseRequest,
    StatusReply,
    StatusRequest,
)
from repro.wire.smoke import service_config, smoke_case
from repro.wire.transport import WireConfig, WireTransport

__all__ = [
    "MAX_FRAME",
    "WIRE_VERSION",
    "decode_body",
    "encode_frame",
    "read_frame",
    "register_message",
    "registered_messages",
    "WireConfig",
    "WireTransport",
    "LockServiceServer",
    "LockClient",
    "LoadGenerator",
    "LoadReport",
    "AcquireRequest",
    "AcquireReply",
    "ReleaseRequest",
    "ReleaseReply",
    "StatusRequest",
    "StatusReply",
    "service_config",
    "smoke_case",
]
