"""Differential harness: object cores vs. the array-compiled engine.

The fast path's whole value rests on one claim — *bit-identical* runs.
This module checks that claim mechanically by running the same fully
pinned case on the ``des`` and ``fast`` backends of
:func:`repro.fuzz.run_case` and comparing the strongest cheap observables:
the CRC32 digest over the full send stream (time, source, destination,
rendered message — any field drift changes it), the kernel event count,
and the grant count.

Two entry points:

- :func:`diff_case` replays one :class:`~repro.fuzz.case.FuzzCase`,
  classifying cases outside the fast path's support matrix as *skipped*
  with the reason instead of failing.
- :func:`diff_corpus` sweeps a corpus directory and returns one report
  per case file; the differential tests run it over
  ``tests/fuzz/corpus`` so every committed counterexample doubles as a
  fast-path regression fixture.

Reports are plain dataclasses; ``verdict`` is one of ``"match"``,
``"MISMATCH"``, or ``"skipped"`` so callers can assert on the sweep
without re-deriving support rules.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fuzz.case import FuzzCase
from repro.fuzz.runner import FuzzResult, run_case, skip_reason

__all__ = ["DiffReport", "diff_case", "diff_corpus"]


@dataclass
class DiffReport:
    """Outcome of one object-vs-fast replay."""

    label: str
    verdict: str                       # "match" | "MISMATCH" | "skipped"
    skip_reason: Optional[str] = None
    object_outcome: Optional[Dict] = None
    fast_outcome: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        """True unless the two stacks disagreed (skips are fine)."""
        return self.verdict != "MISMATCH"

    def render(self) -> str:
        if self.verdict == "skipped":
            return f"skip  {self.label}: {self.skip_reason}"
        if self.verdict == "match":
            assert self.fast_outcome is not None
            return (f"match {self.label}: checksum "
                    f"{self.fast_outcome['checksum']} "
                    f"events {self.fast_outcome['events']}")
        return (f"MISMATCH {self.label}: object={self.object_outcome!r} "
                f"fast={self.fast_outcome!r}")


def _observables(result: FuzzResult) -> Dict:
    """Application-visible behaviour, not just the wire."""
    return {"ok": result.ok, "checksum": result.checksum,
            "events": result.events, "grants": result.grants}


def diff_case(case: FuzzCase) -> DiffReport:
    """Replay ``case`` through both stacks and compare.

    The object side is the ``des`` backend — the exact harness that
    produced the corpus outcomes, oracle and sanitizer included — so a
    match here certifies the fast path against the strictest instrumented
    object run, not a stripped-down twin.
    """
    label = case.label or f"{case.protocol}/n{case.n}/seed{case.seed}"
    reason = skip_reason(case.with_(backend="fast"))
    if reason is not None:
        return DiffReport(label=label, verdict="skipped", skip_reason=reason)
    obj = run_case(case.with_(backend="des"))
    obj_outcome = _observables(obj)
    if not obj.ok:
        # A safety violation on the object side is a finding for the fuzz
        # harness, not a differential target: the fast path raises on the
        # same states but the post-violation trace is not comparable.
        return DiffReport(label=label, verdict="skipped",
                          skip_reason=f"object run not clean: "
                                      f"{(obj.violation or {}).get('type')}",
                          object_outcome=obj_outcome)
    fast = _observables(run_case(case.with_(backend="fast")))
    verdict = "match" if fast == obj_outcome else "MISMATCH"
    return DiffReport(label=label, verdict=verdict,
                      object_outcome=obj_outcome, fast_outcome=fast)


def diff_corpus(directory: str) -> List[DiffReport]:
    """Replay every ``*.json`` corpus case under ``directory``.

    Unsupported cases come back as skips; the sweep never raises on
    classification, so adding exotic counterexamples to the corpus can
    never break the differential suite — only a genuine divergence can.
    """
    reports: List[DiffReport] = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        case, _recorded = FuzzCase.load(path)
        report = diff_case(case)
        if not report.label:
            report.label = os.path.basename(path)
        reports.append(report)
    return reports
