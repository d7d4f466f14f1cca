"""Array-compiled fast simulation cores (the ``fast as the hardware
allows`` ROADMAP item).

:class:`FastCluster` is a drop-in stand-in for
:class:`repro.core.cluster.Cluster` over a declared support matrix
(ring / binary-search protocols, fault-free runs, auto-release grants)
that executes the same simulation 5-10x faster by compiling node state
into flat columns and messages into plain tuples — see
:mod:`repro.fastsim.state` for the layout and the equivalence contract.

Anything outside the support matrix raises
:class:`repro.errors.FastSimUnsupportedError`; callers fall back to the
object cluster.

The names below resolve on first use (:mod:`repro._lazy`):
``FastCluster`` does not load the differential harness, which runs the
fuzzer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fastsim.cluster": ["FastCluster"],
    "repro.fastsim.compiled": ["Engine", "compile_engine"],
    "repro.fastsim.diff": ["DiffReport", "diff_case", "diff_corpus"],
    "repro.fastsim.state": ["ArrayState", "unsupported_reason"],
})

__all__ = [
    "ArrayState",
    "DiffReport",
    "Engine",
    "FastCluster",
    "compile_engine",
    "diff_case",
    "diff_corpus",
    "unsupported_reason",
]
