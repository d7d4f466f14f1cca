"""The service-level shape: the runtime's protocol stack and its smoke case.

:func:`service_config` is the one spelling of the protocol configuration
the supervised asyncio runtime runs — ``repro serve``, every ``aio`` and
``wire`` case of :func:`repro.fuzz.run_case`, ``run_aio_recovery``.
:func:`smoke_case` is the closed-loop run behind ``repro run --backend
wire --profile smoke``: a :class:`~repro.wire.transport.WireTransport`
cluster (every node on its own TCP listener) with ARQ, supervision and the
invariant oracle attached, fronted by a
:class:`~repro.wire.server.LockServiceServer` and hammered over loopback
TCP by a :class:`~repro.wire.client.LoadGenerator`, optionally with faults
(crash / partition / heal / connection reset, all at the socket layer)
running alongside.  The case passes when every op is granted, no client
errors, the oracle stays clean, and the p99 acquire wait is within budget.
CI runs the 3-node/2k-op default; the soak tier runs 5 nodes and 10k ops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.protocols import ROWS
from repro.core.regeneration import Regeneration
from repro.core.stabilization import Stabilization

if TYPE_CHECKING:
    from repro.fuzz.case import FuzzCase

__all__ = ["service_config", "smoke_case"]


def service_config(protocol: str) -> ProtocolConfig:
    """The protocol stack a supervised runtime cluster runs.  For a row
    with the regeneration layer (and stabilization on top of it): rotation
    trap GC, quorum-gated regeneration, timers in message-delay units
    that the driver scales by the transport delay.

    A requester suspects the token lost after ``max(regen_timeout,
    8·ln 10 · mean grant wait)`` delays: the supervisor learns each
    node's own request-to-grant waits.  The floor is 160 delays.  On the
    ledger's light closed loop (``wire_light_n3``) the token-sighting
    detector this replaced chose at most 154 delays, so no census there
    comes earlier than it did; and a crashed holder costs its successor the
    floor plus the 8-delay census window, 168 ms at n = 3, 1 ms.

    The token parks when idle (``idle_pause``, the paper's demand-adaptive
    token speed, Section 4.4): a holder that has seen no demand waits ten
    delays before forwarding, so an idle ring makes an eleventh of the
    hops it would at full speed.  Recovery no longer grows with the
    pause: a waiting requester, not the resting token, sets the timer.
    Crash the holder of a parked token, acquire at its successor: 0.168 s
    at n = 3, 1 ms and 1.68 s at n = 5, 10 ms, at pause 2 and at pause 10
    alike (DESIGN.md §10, "The idle token parks")."""
    row = ROWS[protocol]
    if row.has(Regeneration):
        config = ProtocolConfig(
            trap_gc="rotation",
            single_outstanding=True,
            retry_timeout=25.0,
            regen_timeout=160.0,
            census_window=8.0,
            loan_timeout=80.0,
            regen_quorum=True,
            idle_pause=10.0,
        )
        if row.has(Stabilization):
            # The watchdog's staggered census is the safety net for a
            # token lost while nobody waits, which no requester's timer
            # would ever notice.
            config.stabilize_watch = 50.0
            config.stabilize_reset = True
        return config
    return ProtocolConfig()


def smoke_case(
    n: int = 3,
    ops: int = 2000,
    clients: int = 6,
    protocol: str = "fault_tolerant",
    seed: int = 0,
    delay: float = 0.001,
    loss_rate: float = 0.0,
    p99_budget: float = 2.0,
    faults: Optional[List[Dict]] = None,
) -> FuzzCase:
    """The closed-loop service run as a case (fault times in seconds).
    The fuzzer is imported here, not with the module: ``repro serve``
    needs :func:`service_config` only."""
    from repro.fuzz.case import FuzzCase

    return FuzzCase(
        seed=seed,
        protocol=protocol,
        n=n,
        delay={"kind": "constant", "delay": delay},
        loss_rate=loss_rate,
        faults=list(faults or []),
        closed_loop={"clients": clients, "ops": ops, "p99_budget": p99_budget},
        backend="wire",
        label=f"smoke/{protocol}/n{n}",
    ).validate()
