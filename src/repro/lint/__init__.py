"""Protocol static analyzer and transition sanitizer (``repro lint``).

Three layers:

- :mod:`repro.lint.rules` — static lint of TRS rule sets (binding
  hygiene, shadowing, never-enabled guards), probed over sampled
  bounded-reachable states;
- :mod:`repro.lint.refinement` — guard-narrowing verification of the
  paper's refinement chain (restriction differentials and sampled
  simulation checks);
- :mod:`repro.lint.sanitizer` — runtime invariant auditing for the
  executable protocol cores (:class:`ClusterSanitizer`), on unless a
  cluster is built with ``sanitize=False``; :mod:`repro.lint.rewriter`
  is its TRS-engine counterpart (:class:`SanitizedRewriter`).

``repro lint`` (see :mod:`repro.cli`) runs every registered pass and
emits a human or JSON report; see :mod:`repro.lint.registry`.

The names below resolve on first use, so a simulation that imports the
cluster sanitizer does not load the TRS engine or the spec systems.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lint.findings": ["LintFinding", "LintReport", "LintViolation",
                            "Severity"],
    "repro.lint.refinement": ["check_restriction", "check_simulation"],
    "repro.lint.registry": ["run_all", "run_dynamic", "run_static", "targets"],
    "repro.lint.rewriter": ["SanitizedRewriter"],
    "repro.lint.rules": ["lint_rules", "sample_states"],
    "repro.lint.sanitizer": ["ClusterSanitizer"],
})

__all__ = [
    "ClusterSanitizer",
    "LintFinding",
    "LintReport",
    "LintViolation",
    "SanitizedRewriter",
    "Severity",
    "check_restriction",
    "check_simulation",
    "lint_rules",
    "run_all",
    "run_dynamic",
    "run_static",
    "sample_states",
    "targets",
]
