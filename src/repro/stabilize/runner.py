"""Stabilization episodes as a case: the CLI measurement schedule.

:func:`measure_case` lays out one stabilizing cluster's run through a
series of corruption injections spaced far enough apart that each episode
closes before the next begins; :func:`measure_convergence` runs it through
:func:`repro.fuzz.run_case` and reports the convergence-time distribution
that ``tests/stabilize/test_convergence.py`` pins.  Everything is
deterministic: corruption arguments are explicit, background requests
follow an arithmetic schedule, and network delays are constant — two calls
with the same arguments produce the same samples bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracle import OracleViolation
from repro.fuzz.runner import run_case
from repro.metrics.stats import percentile
from repro.stabilize.bound import convergence_bound

__all__ = ["default_stabilize_config", "measure_case", "measure_convergence"]

#: The reference configuration for stabilization measurements.
_CONFIG: Dict[str, Any] = {
    "trap_gc": "rotation",
    "regen_timeout": 40.0,
    "census_window": 5.0,
    "loan_timeout": 30.0,
    "stabilize_watch": 20.0,
    "stabilize_reset": True,
}
_DELAY = 1.0
_REQUEST_PERIOD = 20.0


def default_stabilize_config() -> ProtocolConfig:
    """The reference configuration for stabilization measurements."""
    return ProtocolConfig(**_CONFIG)


def measure_case(n: int, corruptions: Sequence[Tuple[str, int, int]],
                 seed: int = 0) -> FuzzCase:
    """The measurement schedule for a corruption series.

    ``corruptions`` is a sequence of ``(kind, victim, arg)`` triples;
    each is injected ``1.25 x convergence_bound`` after the previous so
    episodes never overlap, with a light deterministic request load
    running throughout (an idle cluster would hide queue/served
    corruption entirely).
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    spacing = 1.25 * convergence_bound(default_stabilize_config(), n, _DELAY)
    horizon = spacing * (len(corruptions) + 2)
    requests: List[Tuple[float, int]] = []
    t = _REQUEST_PERIOD
    while t < horizon:
        requests.append((t, (len(requests) * 3 + 1) % n))
        t += _REQUEST_PERIOD
    return FuzzCase(
        seed=seed,
        protocol="stabilizing",
        n=n,
        delay={"kind": "constant", "delay": _DELAY},
        config=dict(_CONFIG),
        requests=requests,
        faults=[{"t": spacing * (i + 1), "op": "corrupt", "a": victim % n,
                 "what": kind, "arg": arg}
                for i, (kind, victim, arg) in enumerate(corruptions)],
        max_events=2_000_000,
        horizon=horizon,
        label=f"measure/n{n}",
    ).validate()


def measure_convergence(n: int, corruptions: Sequence[Tuple[str, int, int]],
                        seed: int = 0) -> Dict[str, object]:
    """Convergence-time distribution over a corruption series: the episode
    samples plus their percentiles."""
    result = run_case(measure_case(n, corruptions, seed))
    if result.violation is not None:
        raise OracleViolation(result.violation["invariant"],
                              result.violation["detail"])
    stab = result.stabilization
    assert stab is not None  # every stabilizing-protocol run carries one
    samples = stab["samples"]
    return {
        "n": n,
        "bound": stab["bound"],
        "injections": int(stab["injections"]),
        "episodes": len(samples),
        "samples": samples,
        "stabilization_p50": percentile(samples, 50.0),
        "stabilization_p99": stab["stabilization_p99"],
        "max_stabilization_time": stab["max_stabilization_time"],
        "grants": result.grants,
    }
