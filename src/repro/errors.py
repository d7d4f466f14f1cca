"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TermError(ReproError):
    """An ill-formed term was constructed or manipulated."""


class MatchError(TermError):
    """A pattern match that was required to succeed did not."""


class RuleError(ReproError):
    """A rewrite rule is ill-formed or was misapplied."""


class NoApplicableRuleError(RuleError):
    """A rewriting step was requested but no rule applies to the term."""


class SpecError(ReproError):
    """A protocol specification was violated or misconfigured."""


class RefinementError(SpecError):
    """A refinement mapping failed to carry a step of the fine system."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class NetworkError(SimulationError):
    """A message could not be routed or delivered."""


class ProtocolError(ReproError):
    """A protocol state machine detected a safety violation."""


class TokenSafetyError(ProtocolError):
    """More than one token (or a phantom token) was observed."""


class ConfigError(ReproError):
    """Invalid protocol, workload, or experiment configuration."""


class FuzzCaseError(ConfigError):
    """A fuzz case file or dict is malformed.

    Subclasses :class:`ConfigError` so existing callers keep working;
    carries the offending fault ``kind`` (when the problem is an unknown
    or incomplete fault entry) so error messages and tests can name it
    instead of surfacing a bare ``KeyError`` deep in the runner."""

    def __init__(self, message: str, kind: object = None) -> None:
        super().__init__(message)
        self.kind = kind


class ExperimentCellError(ReproError):
    """One cell of a parallel experiment sweep failed.

    Carries the cell key so a crash inside a worker process points at the
    exact ``(experiment, parameters)`` combination that died instead of
    surfacing as an anonymous pool failure."""

    def __init__(self, key: object, message: str) -> None:
        super().__init__(f"experiment cell {key!r} failed: {message}")
        self.key = key


class LintError(ReproError):
    """The protocol static analyzer found a defect, or was misused.

    The structured runtime-violation subclass (``LintViolation``, carrying
    the offending rule, binding, and minimized state) lives in
    :mod:`repro.lint.findings`."""


class VerifyError(ReproError):
    """The verification subsystem (``repro verify``) was misused or found a
    structural problem: a rule set whose footprints cannot be extracted, a
    verdict artifact that fails its schema or signature check, or a cutoff
    request for a system without a ring topology."""


class MembershipError(ConfigError):
    """An invalid group-membership operation was attempted, e.g. on a node
    that is not a member."""


class WireError(ReproError):
    """The real-socket transport layer (:mod:`repro.wire`) failed.

    Base class for everything that can go wrong on a real TCP link; the
    in-memory transports never raise it."""


class FrameError(WireError):
    """A wire frame violated the framing layer: truncated stream,
    oversized length prefix, or an unsupported wire version.  The
    receiving side closes the connection instead of resynchronizing —
    a length-prefixed stream has no reliable resync point."""


class CodecError(WireError):
    """A frame body failed to decode: a truncated or unknown value, an
    unregistered message type, or field values the message class
    rejects (or one that will not encode: an unregistered class).  Like
    :class:`FrameError` this is terminal for the connection."""


class FastSimUnsupportedError(ReproError):
    """A configuration outside the array-compiled fast path was requested.

    The fast engine (:mod:`repro.fastsim`) mirrors the object cores
    bit-for-bit only over a declared support matrix (ring / binary-search
    protocols, no fault injection, auto-release grants).  Anything outside
    it raises this instead of silently diverging; callers fall back to
    :class:`repro.core.cluster.Cluster`."""
