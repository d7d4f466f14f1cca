"""Registry of lintable systems and the full ``repro lint`` pass schedule.

One :class:`LintTarget` per specification system (the paper's refinement
chain S → S1 → Token → MP → Search → BinarySearch), each carrying:

- how to build its rule set and a *bounded* variant for state sampling
  (the bounds are the Section-4 guard narrowings of
  :mod:`repro.specs.modelcheck`, so every sampled state is genuine);
- an ``expected_idle`` allowlist — rules that are provably never enabled
  under the documented bounds, with the justification recorded in the
  report instead of a ``never-enabled`` warning;
- the restriction pair to differentially verify (restricted rule set vs.
  its own unrestricted parent — same state space), and
- the cross-system simulation target (the ``*_to_s1`` / ``s1_to_s``
  refinement mappings of :mod:`repro.specs.refinement`).

:func:`run_static` executes rule lint + restriction + simulation passes
for every target; :func:`run_dynamic` drives each executable protocol
core under a :class:`~repro.lint.sanitizer.ClusterSanitizer` for a short
sanitized simulation.  Both append to a shared
:class:`~repro.lint.findings.LintReport` — the backing store of the
``repro lint`` CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.protocols import PROTOCOLS
from repro.lint.findings import LintFinding, LintReport, Severity
from repro.lint.refinement import check_restriction, check_simulation
from repro.lint.rules import lint_rules, overlap_pairs, sample_states
from repro.specs import (
    system_binary_search,
    system_message_passing,
    system_s,
    system_s1,
    system_search,
    system_token,
)
from repro.specs.modelcheck import bound_data, bound_requests, bound_visits
from repro.specs.refinement import (
    binary_search_to_s1,
    mp_to_s1,
    s1_to_s,
    search_to_s1,
    token_to_s1,
)
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext, RuleSet
from repro.trs.terms import Term

__all__ = ["LintTarget", "targets", "run_static", "run_dynamic", "run_all"]


class LintTarget:
    """One system registered for static analysis."""

    def __init__(
        self,
        name: str,
        rules: Callable[[], RuleSet],
        initial: Callable[[], Term],
        bounded: Callable[[], RuleSet],
        expected_idle: Optional[Dict[str, str]] = None,
        restriction: Optional[Callable[[], RuleSet]] = None,
        simulation: Optional[Dict] = None,
    ) -> None:
        self.name = name
        self.rules = rules
        self.initial = initial
        self.bounded = bounded
        self.expected_idle = dict(expected_idle or {})
        #: builds the *coarse* (unrestricted) parent of ``rules`` for the
        #: same-state-space guard-narrowing differential; None when the
        #: registered rule set has no restricted/unrestricted split.
        self.restriction = restriction
        #: ``{"mapping": fn, "coarse": RuleSet-builder, "depth": int}`` for
        #: the cross-system simulation check; None for the chain's root.
        self.simulation = dict(simulation) if simulation else None


def targets() -> List[LintTarget]:
    """The six systems of the refinement chain, lint-configured."""
    return [
        LintTarget(
            "S",
            rules=lambda: system_s.make_rules(restricted=True),
            initial=lambda: system_s.initial_state(2),
            bounded=lambda: bound_data(system_s.make_rules(restricted=True), 2),
            restriction=lambda: system_s.make_rules(restricted=False),
        ),
        LintTarget(
            "S1",
            rules=lambda: system_s1.make_rules(restricted=True),
            initial=lambda: system_s1.initial_state(2),
            bounded=lambda: bound_data(system_s1.make_rules(restricted=True), 2),
            restriction=lambda: system_s1.make_rules(restricted=False),
            simulation={
                "mapping": s1_to_s,
                "coarse": lambda: system_s.make_rules(restricted=False),
                "depth": 1,
            },
        ),
        LintTarget(
            "Token",
            rules=lambda: system_token.make_rules(2, ring=True),
            initial=lambda: system_token.initial_state(2),
            bounded=lambda: bound_data(system_token.make_rules(2, ring=True), 2),
            restriction=lambda: system_token.make_rules(2, ring=False),
            simulation={
                "mapping": token_to_s1,
                "coarse": lambda: system_s1.make_rules(restricted=False),
                "depth": 2,
            },
        ),
        LintTarget(
            "MP",
            rules=lambda: system_message_passing.make_rules(2, ring=True),
            initial=lambda: system_message_passing.initial_state(2),
            bounded=lambda: bound_data(
                system_message_passing.make_rules(2, ring=True), 1),
            restriction=lambda: system_message_passing.make_rules(2, ring=False),
            simulation={
                "mapping": mp_to_s1,
                "coarse": lambda: system_s1.make_rules(restricted=False),
                "depth": 2,
            },
        ),
        LintTarget(
            "Search",
            rules=lambda: system_search.make_rules(3, restricted=True),
            initial=lambda: system_search.initial_state(3),
            bounded=lambda: bound_requests(
                bound_data(system_search.make_rules(3, restricted=True),
                           1, nodes=(1,)),
                "5"),
            restriction=lambda: system_search.make_rules(3, restricted=False),
            simulation={
                "mapping": search_to_s1,
                "coarse": lambda: system_s1.make_rules(restricted=False),
                "depth": 2,
            },
        ),
        LintTarget(
            # n = 5 so forwarding (rule 6) is live: the initial span n//2
            # must survive one halving, which needs n >= 4.
            "BinarySearch",
            rules=lambda: system_binary_search.make_rules(5, restricted=True),
            initial=lambda: system_binary_search.initial_state(5),
            bounded=lambda: bound_visits(
                bound_requests(
                    bound_data(
                        system_binary_search.make_rules(5, restricted=True),
                        1, nodes=(2,)),
                    "5"),
                5, "4"),
            expected_idle={
                "6s": "under the span scheme a gimme's target offsets are "
                      "n/2 ± n/4 ± …, never 0 mod n, so a node cannot "
                      "receive its own request (x = z is unreachable)",
            },
            restriction=lambda: system_binary_search.make_rules(
                5, restricted=False),
            simulation={
                "mapping": binary_search_to_s1,
                "coarse": lambda: system_s1.make_rules(restricted=False),
                "depth": 2,
            },
        ),
    ]


def _filter_expected_idle(
    findings: List[LintFinding],
    expected: Dict[str, str],
    report: LintReport,
    system: str,
) -> List[LintFinding]:
    kept = []
    for finding in findings:
        if finding.code == "never-enabled" and finding.rule in expected:
            report.record_pass(
                "expected-idle", system,
                rule=finding.rule, justification=expected[finding.rule])
            continue
        kept.append(finding)
    return kept


def _run_independence(
    report: LintReport,
    system: str,
    rules: RuleSet,
    states: List[Term],
) -> None:
    """Independence-analysis pass: build the rule-pair independence
    relation, flag rules whose opaque callables make the static footprint
    an under-approximation (INFO — the verifier discharges the ambiguity
    dynamically via diamond validation), and record the relation summary.
    """
    from repro.errors import VerifyError
    from repro.lint.findings import Severity as _Sev
    from repro.verify.independence import IndependenceRelation

    try:
        relation = IndependenceRelation(rules, probe_states=states[:8])
    except VerifyError as exc:
        report.add(LintFinding(
            "footprint-extraction-failed", _Sev.ERROR, system, None,
            str(exc)))
        return
    for rule_name, reasons in relation.ambiguous_rules().items():
        probed = sorted(relation.callable_reads.get(rule_name, ()))
        report.add(LintFinding(
            "ambiguous-footprint", _Sev.INFO, system, rule_name,
            f"opaque {', '.join(reasons)} may read components beyond the "
            f"matched patterns; independence claims involving this rule "
            f"are discharged by diamond validation, not trusted statically",
            details={"reasons": list(reasons),
                     "probed_component_reads": probed}))
    summary = relation.summary()
    report.record_pass(
        "independence", system,
        pairs=summary["pairs"],
        independent=summary["independent"],
        conditional=summary["conditional"],
        ambiguous_rules=summary["ambiguous_rules"])


def run_static(
    report: LintReport,
    max_states: int = 300,
    only: Optional[List[str]] = None,
) -> None:
    """Rule lint + restriction differential + simulation check, per target."""
    for target in targets():
        if only and target.name not in only:
            continue
        states = sample_states(
            target.bounded(), target.initial(), max_states=max_states)
        rules = target.rules()
        findings = lint_rules(target.name, rules, states)
        findings = _filter_expected_idle(
            findings, target.expected_idle, report, target.name)
        report.extend(findings)
        report.record_pass(
            "rule-lint", target.name,
            rules=len(list(rules)), sampled_states=len(states),
            overlapping_pairs=len(overlap_pairs(rules)))

        _run_independence(report, target.name, rules, states)

        if target.restriction is not None:
            coarse = target.restriction()
            mapping = target.simulation["mapping"] if target.simulation else None
            rest_findings, classification = check_restriction(
                target.name, list(rules), coarse, states, mapping=mapping)
            report.extend(rest_findings)
            report.record_pass(
                "restriction", target.name,
                classification=classification)

        if target.simulation is not None:
            sim = target.simulation
            fine = Rewriter(target.bounded(), RuleContext())
            coarse_rw = Rewriter(sim["coarse"](), RuleContext())
            # The simulation walk is quadratic in sample size; a modest
            # prefix of the BFS order covers every rule.
            sim_states = states[: max(40, max_states // 4)]
            sim_findings, classification = check_simulation(
                target.name, fine, sim_states, sim["mapping"], coarse_rw,
                max_depth=sim["depth"])
            report.extend(sim_findings)
            report.record_pass(
                "simulation", target.name,
                sampled_states=len(sim_states),
                classification=classification)


def run_dynamic(
    report: LintReport,
    protocols=PROTOCOLS,
    n: int = 5,
    rounds: int = 3,
) -> None:
    """Sanitized short simulation of every executable protocol core (by
    default every row of the protocol table)."""
    from repro.core.cluster import Cluster
    from repro.lint.findings import LintViolation
    from repro.workload.generators import FixedRateWorkload

    for protocol in protocols:
        cluster = Cluster.build(protocol, n=n, seed=7, sanitize=True)
        cluster.add_workload(FixedRateWorkload(mean_interval=8.0))
        try:
            cluster.run(rounds=rounds, max_events=50_000)
        except LintViolation as violation:
            report.add(LintFinding(
                "sanitizer-violation", Severity.ERROR, protocol,
                violation.rule, str(violation),
                violation.to_dict()))
            continue
        report.record_pass(
            "sanitized-sim", protocol,
            events_checked=cluster.sanitizer.checked if cluster.sanitizer else 0,
            rounds=cluster.rounds,
            grants=cluster.responsiveness.grants())


def run_all(
    max_states: int = 300,
    include_dynamic: bool = True,
    only: Optional[List[str]] = None,
) -> LintReport:
    """The full analyzer: every static pass, then the dynamic pass."""
    report = LintReport()
    run_static(report, max_states=max_states, only=only)
    if include_dynamic and not only:
        run_dynamic(report)
    return report
