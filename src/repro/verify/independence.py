"""Rule- and instance-level independence of TRS transitions.

Two transitions are **independent** when they commute from every state
that enables both: executing them in either order reaches the same state,
and neither disables the other.  Independence is what partial-order
reduction (:mod:`repro.verify.dpor`) prunes with, so a wrong relation
silently loses states — this module therefore pairs the *static* analysis
with a *dynamic* machine-check:

- :class:`IndependenceRelation` classifies every unordered rule pair by
  symbolic overlap of their footprints (:mod:`repro.verify.footprint`):
  ``independent`` when no consumed/read item patterns unify and no scalar
  component is written by one and touched by the other — every pair of
  instances commutes; otherwise ``conditional`` — commutation is decided
  per instance from the *ground* items the bindings actually matched.
- :func:`check_commutation` executes the diamond ``s → a → b`` vs
  ``s → b → a`` for a concrete instance pair and reports any divergence.
- :func:`validate_relation` sweeps sampled reachable states and
  diamond-checks every pair the relation claims independent — the
  machine-check that catches both analyzer bugs and bad assumptions
  (a deliberately wrong relation fails here; see the canary test).

Rules with opaque guard/where callables are *ambiguous*: their true read
set may exceed the patterns (rule 1's ``next_nonce`` scans the whole
state).  The relation records them as assumptions — surfaced as lint
findings and discharged dynamically — rather than pretending the static
footprint is the whole story.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext, RuleSet
from repro.trs.terms import Bag, Seq, Struct, Term, Var, Wildcard
from repro.verify.footprint import (FRAME, BagFootprint, RuleFootprint,
                                    ScalarFootprint, footprints,
                                    probe_callable_reads)

__all__ = [
    "INDEPENDENT", "CONDITIONAL",
    "may_equal", "IndependenceRelation", "InstanceFootprint",
    "instance_footprint", "check_commutation", "validate_relation",
]

INDEPENDENT = "independent"
CONDITIONAL = "conditional"


def may_equal(a: Term, b: Term) -> bool:
    """Conservative unifiability: could patterns ``a`` and ``b`` denote the
    same ground item?  Variables and wildcards match anything (no binding
    consistency is tracked — over-approximation is the safe direction)."""
    if isinstance(a, (Var, Wildcard)) or isinstance(b, (Var, Wildcard)):
        return True
    if a == b:
        return True
    if isinstance(a, Struct) and isinstance(b, Struct):
        return (a.functor == b.functor and len(a.args) == len(b.args)
                and all(may_equal(x, y) for x, y in zip(a.args, b.args)))
    if isinstance(a, Seq) and isinstance(b, Seq):
        return (len(a.items) == len(b.items)
                and all(may_equal(x, y) for x, y in zip(a.items, b.items)))
    return False


def _items_overlap(xs: Sequence[Tuple[int, Term]],
                   ys: Sequence[Tuple[int, Term]]) -> bool:
    """Any pair of (field, item) entries in the same field that may match
    the same ground item?"""
    for fx, tx in xs:
        for fy, ty in ys:
            if fx == fy and may_equal(tx, ty):
                return True
    return False


class InstanceFootprint:
    """The ground footprint of one transition instance ``(rule, binding)``.

    ``key`` identifies the instance independently of how the bag-rest
    variables partition the untouched remainder: the rule name plus the
    bindings of the rule's key variables (and of any choice-point
    variables the binding carries beyond the LHS)."""

    __slots__ = ("rule_name", "binding", "key", "consumed", "read",
                 "scalar_writes", "scalar_touches")

    def __init__(
        self,
        rule_name: str,
        binding: Dict[str, Term],
        key: Tuple[Any, ...],
        consumed: Tuple[Tuple[int, Term], ...],
        read: Tuple[Tuple[int, Term], ...],
        scalar_writes: frozenset,
        scalar_touches: frozenset,
    ) -> None:
        self.rule_name = rule_name
        self.binding = binding
        self.key = key
        self.consumed = consumed
        self.read = read
        self.scalar_writes = scalar_writes
        self.scalar_touches = scalar_touches


def _ground(pattern: Term, binding: Dict[str, Term]) -> Term:
    """Substitute ``binding`` into ``pattern`` (wildcards and unbound
    variables survive — :func:`may_equal` treats them as wild)."""
    if isinstance(pattern, Var):
        return binding.get(pattern.name, pattern)
    if isinstance(pattern, Struct):
        args = tuple(_ground(a, binding) for a in pattern.args)
        return pattern if args == pattern.args else Struct(pattern.functor, args)
    if isinstance(pattern, Seq):
        items = tuple(_ground(a, binding) for a in pattern.items)
        return pattern if items == pattern.items else Seq(items)
    if isinstance(pattern, Bag):
        items = tuple(_ground(a, binding) for a in pattern.items)
        return pattern if items == pattern.items else Bag(items)
    return pattern


def instance_footprint(fp: RuleFootprint,
                       binding: Dict[str, Term]) -> InstanceFootprint:
    """Ground ``fp`` under ``binding`` and compute the instance key."""
    key_names = set(fp.key_vars)
    # Choice points merge extra bindings beyond the LHS variables (e.g.
    # System Token's rule 2 choosing the recipient ``y``); they change the
    # successor, so they are part of the instance identity.
    key_names.update(set(binding) - set(fp.rule.lhs_variables))
    key = (fp.name,) + tuple(
        (name, binding.get(name)) for name in sorted(key_names))
    consumed: List[Tuple[int, Term]] = []
    read: List[Tuple[int, Term]] = []
    writes: List[int] = []
    touches: List[int] = []
    for field in fp.fields:
        if isinstance(field, BagFootprint):
            for item in field.consumed:
                consumed.append((field.index, _ground(item, binding)))
            for item in field.read:
                read.append((field.index, _ground(item, binding)))
        elif isinstance(field, ScalarFootprint):
            if field.access == FRAME:
                continue
            touches.append(field.index)
            if field.access != "read":
                writes.append(field.index)
    return InstanceFootprint(fp.name, dict(binding), key, tuple(consumed),
                             tuple(read), frozenset(writes),
                             frozenset(touches))


class IndependenceRelation:
    """The machine-checkable independence relation of one rule set.

    Built statically from footprints; refined per instance; validated
    dynamically by :func:`validate_relation`.  ``overrides`` force a rule
    pair's instances (in)dependent — the hook the canary test uses to
    prove the validator catches a wrong relation."""

    def __init__(
        self,
        ruleset: RuleSet,
        ctx: Optional[RuleContext] = None,
        probe_states: Optional[Sequence[Term]] = None,
        overrides: Optional[Dict[Tuple[str, str], bool]] = None,
    ) -> None:
        self.ruleset = ruleset
        self.footprints = footprints(ruleset)
        self.overrides = {
            self._pair_key(a, b): v
            for (a, b), v in (overrides or {}).items()
        }
        #: rule -> component indices its opaque callables were observed to
        #: read beyond the matched items (empty when never probed).
        self.callable_reads: Dict[str, Set[int]] = {}
        if probe_states:
            for name, fp in self.footprints.items():
                if fp.opaque:
                    self.callable_reads[name] = probe_callable_reads(
                        fp, probe_states, ctx)
        self.pairs: Dict[Tuple[str, str], Dict[str, str]] = {}
        names = list(self.footprints)
        for i, a in enumerate(names):
            for b in names[i:]:
                self.pairs[self._pair_key(a, b)] = self._classify(
                    self.footprints[a], self.footprints[b])

    @staticmethod
    def _pair_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _classify(self, fa: RuleFootprint,
                  fb: RuleFootprint) -> Dict[str, str]:
        """Symbolic commutation check of a rule pair (pattern level)."""
        reasons: List[str] = []
        for sa in fa.scalar_fields():
            for sb in fb.scalar_fields():
                if sa.index != sb.index:
                    continue
                if sa.access == FRAME or sb.access == FRAME:
                    continue
                if "write" in (sa.access, sb.access):
                    reasons.append(
                        f"both touch scalar component {sa.index} "
                        f"and at least one writes it")
        for ba in fa.bag_fields():
            for bb in fb.bag_fields():
                if ba.index != bb.index:
                    continue
                pairs = [
                    (ba.consumed, bb.consumed, "consume/consume"),
                    (ba.consumed, bb.read, "consume/read"),
                    (ba.read, bb.consumed, "read/consume"),
                ]
                for xs, ys, kind in pairs:
                    if _items_overlap(
                            [(ba.index, t) for t in xs],
                            [(bb.index, t) for t in ys]):
                        reasons.append(
                            f"{kind} item patterns may overlap in bag "
                            f"component {ba.index}")
        if reasons:
            return {"status": CONDITIONAL, "reason": "; ".join(reasons)}
        return {"status": INDEPENDENT,
                "reason": "disjoint footprints at the pattern level"}

    # -- queries -------------------------------------------------------------

    def pair(self, a: str, b: str) -> Dict[str, str]:
        return self.pairs[self._pair_key(a, b)]

    def ambiguous_rules(self) -> Dict[str, Tuple[str, ...]]:
        """Rules whose static footprint under-approximates their reads."""
        return {name: fp.opaque
                for name, fp in sorted(self.footprints.items()) if fp.opaque}

    def instances_independent(self, ia: InstanceFootprint,
                              ib: InstanceFootprint) -> bool:
        """Do these two concrete transition instances commute?

        Instance refinement of the pair classification: statically
        independent pairs commute outright; conditional pairs commute when
        the ground items they consumed/read are disjoint and no scalar is
        written by one and touched by the other.  Production cannot
        conflict — adding items never disables a co-enabled instance nor
        changes what it rewrites (multiset semantics)."""
        override = self.overrides.get(
            self._pair_key(ia.rule_name, ib.rule_name))
        if override is not None:
            return override
        if self.pair(ia.rule_name, ib.rule_name)["status"] == INDEPENDENT:
            return True
        if ia.scalar_writes & ib.scalar_touches:
            return False
        if ib.scalar_writes & ia.scalar_touches:
            return False
        if _items_overlap(ia.consumed, ib.consumed):
            return False
        if _items_overlap(ia.consumed, ib.read):
            return False
        if _items_overlap(ib.consumed, ia.read):
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable relation (sorted keys; artifact-friendly)."""
        return {
            "rules": sorted(self.footprints),
            "pairs": {
                f"{a}|{b}": dict(verdict)
                for (a, b), verdict in sorted(self.pairs.items())
            },
            "ambiguous": {
                name: list(reasons)
                for name, reasons in self.ambiguous_rules().items()
            },
        }

    def summary(self) -> Dict[str, int]:
        statuses = [v["status"] for v in self.pairs.values()]
        return {
            "rules": len(self.footprints),
            "pairs": len(statuses),
            "independent": statuses.count(INDEPENDENT),
            "conditional": statuses.count(CONDITIONAL),
            "ambiguous_rules": len(self.ambiguous_rules()),
        }


def enumerate_instances(rewriter: Rewriter, relation: IndependenceRelation,
                        state: Term) -> List[InstanceFootprint]:
    """All enabled transition instances of ``state``, deduplicated by key
    (instances differing only in rest-variable partitioning collapse)."""
    out: List[InstanceFootprint] = []
    seen: Set[Tuple[Any, ...]] = set()
    for rule, binding in rewriter.instantiations(state):
        inst = instance_footprint(relation.footprints[rule.name], binding)
        if inst.key not in seen:
            seen.add(inst.key)
            out.append(inst)
    return out


def check_commutation(
    rewriter: Rewriter,
    state: Term,
    ia: InstanceFootprint,
    ib: InstanceFootprint,
) -> Optional[str]:
    """Execute the diamond for two co-enabled instances; None on success.

    Failure reasons: one order disables the other instance, a where-clause
    vetoes on one path only, or the two orders reach different states."""
    rule_a = rewriter.ruleset[ia.rule_name]
    rule_b = rewriter.ruleset[ib.rule_name]

    def fire(src: Term, inst: InstanceFootprint) -> Optional[Term]:
        rule = rewriter.ruleset[inst.rule_name]
        fp = _relation_fp(rewriter, inst.rule_name)
        for binding in rule.instantiations(src, rewriter.ctx):
            if instance_footprint(fp, binding).key == inst.key:
                return rewriter.apply(src, rule, binding)
        return None

    sa = rewriter.apply(state, rule_a, ia.binding)
    sb = rewriter.apply(state, rule_b, ib.binding)
    if sa is None or sb is None:
        return None   # a vetoed instance is not enabled; nothing to check
    sab = fire(sa, ib)
    sba = fire(sb, ia)
    if sab is None:
        return (f"{ib.rule_name} is disabled (or vetoes) after "
                f"{ia.rule_name}")
    if sba is None:
        return (f"{ia.rule_name} is disabled (or vetoes) after "
                f"{ib.rule_name}")
    if sab != sba:
        return (f"orders diverge: {ia.rule_name};{ib.rule_name} and "
                f"{ib.rule_name};{ia.rule_name} reach different states")
    return None


_FP_CACHE: Dict[int, Dict[str, RuleFootprint]] = {}


def _relation_fp(rewriter: Rewriter, rule_name: str) -> RuleFootprint:
    cache = _FP_CACHE.get(id(rewriter.ruleset))
    if cache is None:
        cache = footprints(rewriter.ruleset)
        _FP_CACHE[id(rewriter.ruleset)] = cache
    return cache[rule_name]


def _sample_states(rewriter: Rewriter, initial: Term,
                   max_states: int) -> List[Term]:
    seen = {initial}
    order = [initial]
    cursor = 0
    while cursor < len(order) and len(seen) < max_states:
        state = order[cursor]
        cursor += 1
        for _, succ in rewriter.successors(state):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                if len(seen) >= max_states:
                    break
    return order


def validate_relation(
    rewriter: Rewriter,
    relation: IndependenceRelation,
    initial: Term,
    max_states: int = 150,
    max_checks: int = 4_000,
) -> Tuple[List[Dict[str, str]], int]:
    """Diamond-check every claimed-independent instance pair over a sample
    of reachable states.  Returns ``(violations, checks_performed)`` —
    an empty violation list is the machine-check that the relation (and
    its ambiguity assumptions) holds on the sampled coverage."""
    violations: List[Dict[str, str]] = []
    checks = 0
    for state in _sample_states(rewriter, initial, max_states):
        instances = enumerate_instances(rewriter, relation, state)
        for i, ia in enumerate(instances):
            for ib in instances[i + 1:]:
                if not relation.instances_independent(ia, ib):
                    continue
                if checks >= max_checks:
                    return violations, checks
                checks += 1
                failure = check_commutation(rewriter, state, ia, ib)
                if failure is not None:
                    violations.append({
                        "rule_a": ia.rule_name,
                        "rule_b": ib.rule_name,
                        "key_a": repr(ia.key),
                        "key_b": repr(ib.key),
                        "reason": failure,
                    })
    return violations, checks

