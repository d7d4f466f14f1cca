"""repro.fuzz — one schedule, one runner, one census.

A seeded schedule of requests and faults, run against a cluster under an
oracle: explicit, serializable cases with one fault table
(:mod:`repro.fuzz.case`), a network-wide invariant oracle whose verdict is
a value (:mod:`repro.fuzz.oracle`), ``run_case`` over the ``des`` / ``fast``
/ ``aio`` / ``wire`` backends with deterministic checksumming
(:mod:`repro.fuzz.runner`), and schedule minimization
(:mod:`repro.fuzz.shrink`).  Everything derives from one root seed
(:mod:`repro.fuzz.rng`); the ``repro run`` CLI and the committed corpus
under ``tests/fuzz/corpus/`` are the user-facing entry points.
"""

from repro.fuzz.case import (
    BACKENDS,
    FAULT_OPS,
    IMPL_PROTOCOLS,
    PROFILES,
    SPEC_SYSTEMS,
    FuzzCase,
    build_delay,
    generate_case,
)
from repro.fuzz.oracle import (
    InvariantOracle,
    OracleViolation,
    check_spec_reduction,
    convergence,
    safety,
)
from repro.fuzz.rng import child_rng, derive_seed
from repro.fuzz.runner import FuzzResult, fuzz_run, run_case, skip_reason
from repro.fuzz.shrink import shrink

__all__ = [
    "BACKENDS",
    "FAULT_OPS",
    "IMPL_PROTOCOLS",
    "PROFILES",
    "SPEC_SYSTEMS",
    "FuzzCase",
    "FuzzResult",
    "InvariantOracle",
    "OracleViolation",
    "build_delay",
    "check_spec_reduction",
    "child_rng",
    "convergence",
    "derive_seed",
    "fuzz_run",
    "generate_case",
    "run_case",
    "safety",
    "shrink",
    "skip_reason",
]
