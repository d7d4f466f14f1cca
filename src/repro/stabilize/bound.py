"""Convergence-time bound for the stabilizing protocol.

Self-stabilization promises convergence within a *bounded* number of
steps from any state; the oracle needs that bound as wall-clock virtual
time.  :func:`convergence_bound` derives it from the knobs that govern
the worst recovery chain the corruption injector can set up:

- a corrupted epoch fence can sit up to ``4n`` epochs above the fleet
  (see :mod:`repro.faults.corruption`), so up to ``~5`` watchdog mint
  cycles may be needed before a minted epoch outranks it — though the
  stale-token absorption rule usually short-circuits this in one lap;
- each mint cycle costs at most two (staggered) watchdog periods plus a
  census window, and each duplicate-reduction lap costs ``n`` maximum
  message delays;
- an outstanding loan adds ``loan_timeout`` before the lender reclaims,
  and demand-driven detection adds ``regen_timeout``.

The result is deliberately generous — the bound certifies *eventual*
convergence, ``tests/stabilize/test_convergence.py`` pins the percentiles.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig

__all__ = ["convergence_bound", "delay_ceiling"]


def delay_ceiling(delay_spec: dict) -> float:
    """Upper bound on one message delay for a bounded delay model.

    The watchdog (and therefore the bound) is only meaningful when
    delays are bounded: an exponential tail can always impersonate a
    dead token.  Exponential models get a pragmatic 6x-mean ceiling —
    callers that need certainty use constant/uniform models.
    """
    kind = delay_spec.get("kind", "constant")
    if kind == "constant":
        return float(delay_spec.get("delay", 1.0))
    if kind == "uniform":
        return float(delay_spec.get("high", 2.0))
    return 6.0 * float(delay_spec.get("mean", 1.0))


def convergence_bound(config: ProtocolConfig, n: int,
                      delay_max: float) -> float:
    """Virtual-time budget within which every injected state must have
    converged back to the single-token predicate, derived from the ring
    size and the timers."""
    watch = config.stabilize_watch or 25.0
    census = config.census_window
    laps = (4 * n + 8) * delay_max
    return (6.0 * watch + 6.0 * census + laps
            + config.loan_timeout + config.regen_timeout)
