"""Always-on transition sanitizer.

Two runtime guards, one per layer of the repo:

- :class:`SanitizedRewriter` wraps :class:`repro.trs.engine.Rewriter`: every
  applied rewrite (or every ``every``-th) is checked against the paper's safety
  invariants — the prefix property (Definition 2), token uniqueness, and
  history monotonicity (the global history only ever grows by appends).  A
  violation raises a structured :class:`~repro.lint.findings.LintViolation`
  carrying the offending rule, the match binding, and a *minimized* state.

- :class:`ClusterSanitizer` hooks the effect loop of the discrete-event and
  asyncio drivers: after every handler invocation it audits the
  cluster-level analogues — at most one token per epoch observable at rest
  (held or on loan; regeneration legitimately retires an epoch), per-core
  visit-clock monotonicity, and grant/request sequencing.

Both are governed by the ``REPRO_SANITIZE`` environment switch (default
**on**; set ``REPRO_SANITIZE=0`` to disable).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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

__all__ = [
    "sanitize_enabled",
    "minimize_state",
    "SanitizedRewriter",
    "ClusterSanitizer",
]

_FALSY = ("0", "off", "false", "no")


def sanitize_enabled(default: bool = True) -> bool:
    """The ``REPRO_SANITIZE`` switch; unset means ``default`` (on)."""
    value = os.environ.get("REPRO_SANITIZE")
    if value is None:
        return default
    return value.strip().lower() not in _FALSY


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
# TRS-level sanitizer
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


# ---------------------------------------------------------------------------
# Cluster-level sanitizer (sans-IO cores under the sim / asyncio drivers)
# ---------------------------------------------------------------------------

class ClusterSanitizer:
    """Audits a set of protocol cores after driver effect application.

    The drivers call :meth:`after_apply` once per handled event.  Because
    the drivers are single-threaded, only the acting core's state can have
    changed, so the sanitizer maintains an O(1)-per-event incremental view
    (who holds a token, per epoch; each core's visit clock) and evaluates
    the invariants on every event:

    - **single-token-census** — among non-crashed cores of the *newest*
      epoch, at most one token is observable at rest (held via
      ``has_token`` or on loan via ``lent_to``).  Fault-tolerant
      regeneration retires whole epochs, so a stale lower-epoch token is
      legal until fenced; two tokens in one epoch never are.
    - **clock-monotonicity** — a core's token-visit clock never decreases.
    - **grant-sequencing** — a core never reports a grant newer than its
      latest request (``granted_seq <= req_seq``).

    Violations raise :class:`LintViolation` whose ``rule`` names the
    handler of the event that exposed the fault (``on_message``,
    ``on_timer``, …) and whose ``binding`` records the node and payload.
    """

    def __init__(self) -> None:
        self._cores: Dict[int, object] = {}
        self._crashed: set = set()
        self._clocks: Dict[int, int] = {}
        #: node -> epoch of its observable token (held or lent), live only
        self._holder_epochs: Dict[int, int] = {}
        #: epoch -> number of observable tokens (inverse of the above)
        self._epoch_counts: Dict[int, int] = {}
        self.checked = 0

    # -- wiring ----------------------------------------------------------------

    def register(self, core) -> None:
        """Track one protocol core (called by the driver at attach time)."""
        self._cores[core.node_id] = core
        self._update_core(core)

    def unregister(self, node_id: int) -> None:
        """Stop tracking a core (dynamic membership: the node left)."""
        self._set_holder(node_id, None)
        self._cores.pop(node_id, None)
        self._clocks.pop(node_id, None)
        self._crashed.discard(node_id)

    def mark_crashed(self, node_id: int) -> None:
        self._crashed.add(node_id)
        self._set_holder(node_id, None)

    def mark_recovered(self, node_id: int) -> None:
        self._crashed.discard(node_id)
        core = self._cores.get(node_id)
        if core is not None:
            self._update_core(core)

    # -- incremental view --------------------------------------------------------

    def _set_holder(self, node_id: int, epoch: Optional[int]) -> None:
        old = self._holder_epochs.get(node_id)
        if old == epoch:
            return
        if old is not None:
            remaining = self._epoch_counts[old] - 1
            if remaining:
                self._epoch_counts[old] = remaining
            else:
                del self._epoch_counts[old]
        if epoch is None:
            self._holder_epochs.pop(node_id, None)
        else:
            self._holder_epochs[node_id] = epoch
            self._epoch_counts[epoch] = self._epoch_counts.get(epoch, 0) + 1

    def _update_core(self, core) -> None:
        # Every registered core is a TokenMachine, which declares the
        # possession record audited here and below.  after_apply inlines
        # this refresh (one call per event): keep the two in step.
        node_id = core.node_id
        holds = node_id not in self._crashed and (
            core.has_token or core.lent_to is not None)
        epoch = core.epoch if holds else None
        # Fast path: the holder view is unchanged (the overwhelmingly
        # common case — most events do not move the token).
        if self._holder_epochs.get(node_id) != epoch:
            self._set_holder(node_id, epoch)

    # -- the hook ----------------------------------------------------------------

    def after_apply(self, core, origin: str, payload: object, now: float) -> None:
        """Called by a driver after it applied a handler's effects: audit
        this event.

        Only ``core`` can have changed, so its holder entry and clock are
        refreshed inline, O(1).  Each invariant's full check — and its
        report, assembled only on the raise path — runs when the cheap
        test in front of it says it could fail: two tokens in one epoch
        need two holders, and the per-core invariants need a clock that
        went back or a grant past the request.
        """
        self.checked += 1
        node_id = core.node_id
        holders = self._holder_epochs
        epoch = core.epoch if (
            (core.has_token or core.lent_to is not None)
            and node_id not in self._crashed) else None
        if holders.get(node_id) != epoch:
            self._set_holder(node_id, epoch)
        if len(holders) > 1:
            self._check_census(origin, node_id, payload)
        clock = core.clock
        clocks = self._clocks
        if clock < clocks.get(node_id, clock) or core.granted_seq > core.req_seq:
            self._check_core(core, origin, node_id, payload)
        clocks[node_id] = clock

    def check(
        self,
        origin: str = "<manual>",
        payload: object = None,
        node: Optional[int] = None,
    ) -> None:
        """Rescan every core and run every invariant now; raise on the
        first violation (used at quiescent points and by tests)."""
        self.checked += 1
        for core in self._cores.values():
            self._update_core(core)
        self._check_census(origin, node, payload)
        for node_id, core in self._cores.items():
            if node_id not in self._crashed:
                self._check_core(core, origin, node, payload)

    # -- invariants ---------------------------------------------------------------

    def _check_census(self, origin: str, node: Optional[int],
                      payload: object) -> None:
        counts = self._epoch_counts
        if not counts:
            return
        newest = max(counts)
        if counts[newest] > 1:
            holders = sorted(
                n for n, epoch in self._holder_epochs.items()
                if epoch == newest
            )
            raise LintViolation(
                invariant="single-token-census",
                rule=origin,
                binding={"node": node, "payload": payload},
                state={"epoch": newest, "holders": holders},
                detail=(
                    f"{len(holders)} tokens observable at rest in "
                    f"epoch {newest} (nodes {holders})"
                ),
            )

    def _check_core(self, core, origin: str, node: Optional[int],
                    payload: object) -> None:
        node_id = core.node_id
        clock = core.clock
        last = self._clocks.get(node_id)
        if last is not None and clock < last:
            raise LintViolation(
                invariant="clock-monotonicity",
                rule=origin,
                binding={"node": node, "payload": payload},
                state={"node": node_id, "clock": clock, "previous": last},
                detail=(
                    f"node {node_id} visit clock went backwards "
                    f"({last} -> {clock})"
                ),
            )
        self._clocks[node_id] = clock
        req_seq = core.req_seq
        granted_seq = core.granted_seq
        if granted_seq > req_seq:
            raise LintViolation(
                invariant="grant-sequencing",
                rule=origin,
                binding={"node": node, "payload": payload},
                state={"node": node_id, "granted_seq": granted_seq,
                       "req_seq": req_seq},
                detail=(
                    f"node {node_id} granted_seq {granted_seq} "
                    f"exceeds req_seq {req_seq}"
                ),
            )
