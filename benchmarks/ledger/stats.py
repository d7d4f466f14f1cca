"""Order statistics for the ledger: exact samples in, one number out.

Everything here works on plain lists of floats — the harness keeps every
client-side timestamp (no histogram buckets), so a percentile is read off
the sorted sample, not interpolated out of a ~19 %-wide bucket.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

__all__ = ["percentile", "median", "quartiles", "summary"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` %
    of the sample at or below it.  ``q`` in (0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the two middle samples when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q2, q3]`` exactly as ``statistics.quantiles(values, n=4)``
    gives them — the definition the acceptance rule uses.  A single
    sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of per-repeat values."""
    q1, q2, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
