"""TRS-level sanitizer: the rewriting engine, audited per transition.

:class:`SanitizedRewriter` wraps :class:`repro.trs.engine.Rewriter`: every
applied rewrite (or every ``every``-th) is checked against the paper's
safety invariants — the prefix property (Definition 2), token uniqueness,
and history monotonicity (the global history only ever grows by
appends).  A violation raises a structured
:class:`~repro.lint.findings.LintViolation` carrying the offending rule,
the match binding, and a *minimized* state.

Its cluster-level counterpart, :class:`~repro.lint.sanitizer.ClusterSanitizer`,
lives apart so that a simulation does not load the TRS engine and the
spec systems this module needs.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.lint.findings import LintViolation
from repro.specs.properties import (
    _FIELDS,
    global_history,
    prefix_property,
    token_uniqueness,
)
from repro.trs.engine import Rewriter
from repro.trs.matching import Binding
from repro.trs.rules import Rule, RuleContext, RuleSet
from repro.trs.terms import Bag, Struct, Term

__all__ = ["minimize_state", "SanitizedRewriter"]


# ---------------------------------------------------------------------------
# State minimization
# ---------------------------------------------------------------------------

def minimize_state(state: Term, violated: Callable[[Term], bool]) -> Term:
    """Greedily shrink ``state`` while ``violated`` stays true.

    Repeatedly drops single elements from the state's bag components
    (``Q``/``P``/``I``/``O``/``W`` entries) as long as the violation
    persists, producing the small counterexamples the lint report shows.
    ``violated`` is probed defensively: a predicate that *errors* on a
    shrunk candidate counts as "not violated" (we never minimize into a
    malformed state).
    """
    def still_bad(candidate: Term) -> bool:
        try:
            return bool(violated(candidate))
        except Exception:
            return False

    if not isinstance(state, Struct) or not still_bad(state):
        return state
    changed = True
    while changed:
        changed = False
        for i, component in enumerate(state.args):
            if not isinstance(component, Bag):
                continue
            for item in component.items:
                shrunk = component.remove_one(item)
                candidate = Struct(
                    state.functor,
                    state.args[:i] + (shrunk,) + state.args[i + 1 :],
                )
                if still_bad(candidate):
                    state = candidate
                    changed = True
                    break
            if changed:
                break
    return state


# ---------------------------------------------------------------------------
# The sanitized rewriter
# ---------------------------------------------------------------------------

def _history_monotone(pre: Term, post: Term) -> bool:
    """The global history only grows by appends across a transition."""
    return global_history(pre).is_prefix_of(global_history(post))


def default_invariants(state: Term) -> List[Tuple[str, Callable[[Term], bool]]]:
    """The paper's safety invariants applicable to ``state``'s system."""
    invariants: List[Tuple[str, Callable[[Term], bool]]] = [
        ("prefix-property", prefix_property)
    ]
    if isinstance(state, Struct) and "T" in _FIELDS.get(state.functor, ()):
        invariants.append(("token-uniqueness", token_uniqueness))
    return invariants


class SanitizedRewriter(Rewriter):
    """A :class:`Rewriter` that audits every applied transition (or every
    ``every``-th).

    Drop-in replacement: all enumeration/reduction entry points funnel
    through :meth:`apply`, so reductions, random walks, and bounded search
    are all sanitized.  ``invariants`` defaults to the invariant set
    appropriate for the state's system (prefix property everywhere, token
    uniqueness where a token component exists), plus history monotonicity,
    which needs both endpoints and is always checked.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        ctx: Optional[RuleContext] = None,
        invariants: Optional[Iterable[Tuple[str, Callable[[Term], bool]]]] = None,
        every: int = 1,
        check_monotonicity: bool = True,
    ) -> None:
        super().__init__(ruleset, ctx)
        self._invariants = list(invariants) if invariants is not None else None
        self._every = every
        self._check_monotonicity = check_monotonicity
        self._transitions = 0
        self.checked = 0

    def apply(self, state: Term, rule: Rule, binding: Binding) -> Optional[Term]:
        result = super().apply(state, rule, binding)
        if result is None:
            return None
        self._transitions += 1
        if self._transitions % self._every == 0:
            self._check(state, result, rule, binding)
        return result

    def _check(self, pre: Term, post: Term, rule: Rule, binding: Binding) -> None:
        self.checked += 1
        invariants = (
            self._invariants
            if self._invariants is not None
            else default_invariants(post)
        )
        for name, invariant in invariants:
            if not invariant(post):
                minimized = minimize_state(post, lambda s: not invariant(s))
                raise LintViolation(
                    invariant=name,
                    rule=rule.name,
                    binding=binding,
                    state=post,
                    minimized=minimized,
                )
        if self._check_monotonicity and not _history_monotone(pre, post):
            raise LintViolation(
                invariant="history-monotonicity",
                rule=rule.name,
                binding=binding,
                state=post,
                detail=(
                    f"global history {global_history(pre)!r} is not a "
                    f"prefix of {global_history(post)!r}"
                ),
            )
