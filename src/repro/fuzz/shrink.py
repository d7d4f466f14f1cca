"""Schedule minimization: shrink a violating case to its essence.

Classic greedy delta debugging over the case's *explicit* schedule — no
RNG state to fight, because a :class:`~repro.fuzz.case.FuzzCase` carries
its requests and faults as plain lists:

1. drop faults (largest chunks first, then singles);
2. drop requests the same way;
3. remove nodes (shrink ``n``, discarding schedule entries that name
   removed nodes) — fabric cases drop whole lanes instead, remapping
   the surviving key indices;
4. tighten the budgets (``max_events`` to just past the violation point,
   ``horizon``/``steps`` by halving).

A candidate counts as reproducing only when it fails the *same invariant*
as the original — shrinking must not wander off to a different bug.  The
whole process is deterministic: same input case, same minimized output.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.fuzz.case import FuzzCase
from repro.fuzz.runner import FuzzResult, run_case

__all__ = ["shrink"]


class _Budget:
    def __init__(self, attempts: int) -> None:
        self.left = attempts
        self.spent = 0

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.spent += 1
        return True


def _repro(case: FuzzCase, run: Callable, invariant: Optional[str],
           budget: _Budget) -> Optional[FuzzResult]:
    """Run a candidate; its result when it fails the same invariant."""
    if not budget.take():
        return None
    result = run(case)
    if result.violation is None:
        return None
    if invariant and result.violation.get("invariant") != invariant:
        return None
    return result


def _ddmin_list(case: FuzzCase, fld: str, run: Callable,
                invariant: Optional[str], budget: _Budget,
                ) -> Tuple[FuzzCase, Optional[FuzzResult]]:
    """Greedy ddmin over one list field: drop chunks, halving chunk size."""
    best = case
    best_result: Optional[FuzzResult] = None
    items: List = list(getattr(case, fld))
    chunk = max(1, len(items) // 2)
    while chunk >= 1 and items:
        removed_any = False
        start = 0
        while start < len(items):
            candidate_items = items[:start] + items[start + chunk:]
            candidate = best.with_(**{fld: candidate_items})
            result = _repro(candidate, run, invariant, budget)
            if result is not None:
                items = candidate_items
                best, best_result = candidate, result
                removed_any = True
                # keep `start` put: the next chunk slid into place
            else:
                start += chunk
        if not removed_any or chunk == 1:
            chunk //= 2
    return best, best_result


def _without_node(fault: dict, n: int) -> Optional[dict]:
    """``fault`` on a ring shrunk to ``n`` nodes: None when it names a
    removed node (a partition group just loses the member, unless that
    empties it)."""
    if fault.get("a", 0) >= n or fault.get("b", 0) >= n:
        return None
    if "group_a" in fault:
        groups = {g: [x for x in fault[g] if x < n]
                  for g in ("group_a", "group_b")}
        return dict(fault, **groups) if all(groups.values()) else None
    return fault


def _drop_nodes(case: FuzzCase, run: Callable, invariant: Optional[str],
                budget: _Budget) -> Tuple[FuzzCase, Optional[FuzzResult]]:
    best, best_result = case, None
    n = case.n
    while n > 2:
        smaller = n - 1
        candidate = best.with_(
            n=smaller,
            requests=[(t, node) for t, node in best.requests if node < smaller],
            faults=[g for g in (_without_node(f, smaller)
                                for f in best.faults) if g is not None],
        )
        result = _repro(candidate, run, invariant, budget)
        if result is None:
            break
        best, best_result = candidate, result
        n = smaller
    return best, best_result


def _drop_keys(case: FuzzCase, run: Callable, invariant: Optional[str],
               budget: _Budget) -> Tuple[FuzzCase, Optional[FuzzResult]]:
    """Remove whole fabric lanes.  Lanes are independent, so dropping one
    (and remapping the key indices above it) preserves every other lane's
    behaviour exactly — a candidate reproduces iff the violating lane
    survived the cut."""
    best, best_result = case, None
    i = len(best.keys) - 1
    while i >= 0 and len(best.keys) > 1:
        candidate = best.with_(
            keys=best.keys[:i] + best.keys[i + 1:],
            keyed_requests=[(t, k - (k > i), node)
                            for t, k, node in best.keyed_requests if k != i],
            faults=[dict(f, k=f["k"] - (f["k"] > i))
                    for f in best.faults if f["k"] != i],
        )
        result = _repro(candidate, run, invariant, budget)
        if result is not None:
            best, best_result = candidate, result
        i -= 1
    return best, best_result


def _halve_field(case: FuzzCase, fld: str, floor, run: Callable,
                 invariant: Optional[str], budget: _Budget,
                 ) -> Tuple[FuzzCase, Optional[FuzzResult]]:
    best, best_result = case, None
    value = getattr(case, fld)
    while value / 2 >= floor:
        candidate = best.with_(**{fld: type(value)(value / 2)})
        result = _repro(candidate, run, invariant, budget)
        if result is None:
            break
        best, best_result = candidate, result
        value = getattr(best, fld)
    return best, best_result


def shrink(case: FuzzCase, result: FuzzResult,
           run: Callable = run_case,
           max_attempts: int = 400) -> Tuple[FuzzCase, FuzzResult, int]:
    """Minimize a violating case; returns ``(case, result, attempts)``.

    ``result`` must be the violating outcome of ``run(case)``.  ``run`` is
    injectable so canary tests shrink against their instrumented runner.
    """
    if result.violation is None:
        raise ValueError("shrink() needs a violating case")
    invariant = result.violation.get("invariant")
    budget = _Budget(max_attempts)
    best, best_result = case, result

    schedule_fields = (("faults", "keyed_requests") if case.kind == "fabric"
                       else ("faults", "requests"))
    changed = True
    while changed and budget.left > 0:
        changed = False
        for fld in schedule_fields:
            if getattr(best, fld):
                smaller, r = _ddmin_list(best, fld, run, invariant, budget)
                if r is not None and smaller.event_count() < best.event_count():
                    best, best_result = smaller, r
                    changed = True
        if best.kind == "fabric":
            smaller, r = _drop_keys(best, run, invariant, budget)
            if r is not None and len(smaller.keys) < len(best.keys):
                best, best_result = smaller, r
                changed = True
        else:
            smaller, r = _drop_nodes(best, run, invariant, budget)
            if r is not None and smaller.n < best.n:
                best, best_result = smaller, r
                changed = True

    # Budget tightening (no fixpoint needed: monotone).
    if best.kind in ("impl", "fabric"):
        if best_result.events and best_result.events < best.max_events:
            candidate = best.with_(max_events=best_result.events)
            r = _repro(candidate, run, invariant, budget)
            if r is not None:
                best, best_result = candidate, r
        smaller, r = _halve_field(best, "horizon", 1.0, run, invariant, budget)
        if r is not None:
            best, best_result = smaller, r
    else:
        smaller, r = _halve_field(best, "steps", 1, run, invariant, budget)
        if r is not None:
            best, best_result = smaller, r

    return best, best_result, budget.spent
