"""repro.stabilize — the self-stabilization layer.

Dijkstra-style self-stabilization for the adaptive token-passing
protocols: from *any* state — any number of tokens, any clock or epoch
scramble, any queue garbage — the cluster must converge back to the
single-token legitimate states within a bounded time, and stay there.

Three pieces:

- :class:`~repro.core.stabilization.Stabilization` — the stabilization
  layer of the protocol table (local repair, epoch-fenced token
  reduction, and a staggered token watchdog), stacked on regeneration in
  the ``stabilizing`` row;
- :func:`~repro.stabilize.bound.convergence_bound` — the bound, derived
  from the protocol timers, that the oracle's
  :func:`~repro.fuzz.oracle.convergence` verdict (bounded convergence +
  closure over the token-unit census) judges a run against;
- :func:`~repro.stabilize.runner.measure_convergence` — the
  deterministic episode schedule behind ``repro run --measure``.

The corruption injector itself lives in :mod:`repro.faults.corruption`
(it is a fault model, not a protocol), and ``repro run --profile
stabilize`` exercises all of it end to end.
"""

from repro.stabilize.bound import convergence_bound, delay_ceiling
from repro.stabilize.runner import (
    default_stabilize_config,
    measure_case,
    measure_convergence,
)

__all__ = [
    "convergence_bound",
    "default_stabilize_config",
    "delay_ceiling",
    "measure_case",
    "measure_convergence",
]
