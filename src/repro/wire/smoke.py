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
    that the driver scales by the transport delay — ``regen_timeout`` is
    the *fallback*; once the ring has cadence history, the supervisor's
    phi provider overrides it."""
    row = ROWS[protocol]
    if row.has(Regeneration):
        config = ProtocolConfig(
            trap_gc="rotation",
            single_outstanding=True,
            retry_timeout=25.0,
            regen_timeout=30.0,
            census_window=8.0,
            loan_timeout=80.0,
            regen_quorum=True,
        )
        if row.has(Stabilization):
            # The watchdog census would race the quorum-gated
            # demand-driven regeneration; its staggered cadence sits well
            # above it.
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
