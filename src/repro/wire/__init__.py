"""Real-socket wire layer: TCP transport, lock service, load generation.

``repro.wire`` takes the asyncio runtime onto actual sockets.  The
:class:`WireTransport` is the one :class:`~repro.sim.network.Network`
with its data path moved onto loopback TCP (length-prefixed versioned
frames, one multiplexed connection per peer, bounded write queues,
reconnect with jittered backoff), so ARQ
reliability, supervision (liveness read off delivered frames) and the
invariant oracle attach without modification.  On top of it, :class:`LockServiceServer` exposes
acquire/release/status as a network API and :class:`LockClient` /
:class:`LoadGenerator` drive it with open/closed-loop workloads.

The names below resolve on first use (:mod:`repro._lazy`): a load
generator does not load the server, and neither loads the fuzzer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.wire.client": ["LoadGenerator", "LoadReport", "LockClient"],
    "repro.wire.codec": [
        "MAX_FRAME",
        "WIRE_VERSION",
        "decode_body",
        "encode_frame",
        "read_frame",
        "register_message",
        "registered_messages",
    ],
    "repro.wire.server": ["LockServiceServer"],
    "repro.wire.service": [
        "AcquireReply",
        "AcquireRequest",
        "ReleaseReply",
        "ReleaseRequest",
        "StatusReply",
        "StatusRequest",
    ],
    "repro.wire.smoke": ["service_config", "smoke_case"],
    "repro.wire.transport": ["WireConfig", "WireTransport"],
})

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
