"""Metrics: responsiveness (Definition 3), message counters, fairness
auditing (Theorem 3), per-key fabric aggregation, and summary statistics.

The names below resolve on first use (:mod:`repro._lazy`)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.counters": ["MessageCounters", "WireCounters"],
    "repro.metrics.fairness": ["FairnessAuditor"],
    "repro.metrics.keyed": ["KeyedMetricsRegistry", "KeyStats",
                            "LatencyHistogram"],
    "repro.metrics.responsiveness": ["ResponsivenessTracker"],
    "repro.metrics.tracing": ["TraceEvent", "TraceRecorder"],
    "repro.metrics.stats": ["confidence_interval", "mean", "median",
                            "percentile", "stdev", "summarize"],
})

__all__ = [
    "FairnessAuditor",
    "KeyStats",
    "KeyedMetricsRegistry",
    "LatencyHistogram",
    "MessageCounters",
    "ResponsivenessTracker",
    "TraceEvent",
    "TraceRecorder",
    "WireCounters",
    "confidence_interval",
    "mean",
    "median",
    "percentile",
    "stdev",
    "summarize",
]
