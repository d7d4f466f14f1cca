"""Protocol static analyzer and transition sanitizer (``repro lint``).

Three layers:

- :mod:`repro.lint.rules` — static lint of TRS rule sets (binding
  hygiene, shadowing, never-enabled guards), probed over sampled
  bounded-reachable states;
- :mod:`repro.lint.refinement` — guard-narrowing verification of the
  paper's refinement chain (restriction differentials and sampled
  simulation checks);
- :mod:`repro.lint.sanitizer` — runtime invariant auditing for the TRS
  engine (:class:`SanitizedRewriter`) and the executable protocol cores
  (:class:`ClusterSanitizer`), on by default via ``REPRO_SANITIZE``.

``repro lint`` (see :mod:`repro.cli`) runs every registered pass and
emits a human or JSON report; see :mod:`repro.lint.registry`.
"""

from repro.lint.findings import LintFinding, LintReport, LintViolation, Severity
from repro.lint.refinement import check_restriction, check_simulation
from repro.lint.registry import run_all, run_dynamic, run_static, targets
from repro.lint.rules import lint_rules, sample_states
from repro.lint.sanitizer import (
    ClusterSanitizer,
    SanitizedRewriter,
    sanitize_enabled,
)

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
    "sanitize_enabled",
    "targets",
]
