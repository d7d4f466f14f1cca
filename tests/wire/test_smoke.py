"""The service-level run on real sockets: ``smoke_case`` through
``run_case``, and what becomes of the faults scheduled alongside its
load — a broken one fails the run as a typed error, one timed after the
load ends is listed as not reached (both used to come back ``ok`` with
the fault reported as if it had run)."""

import pytest

from repro.errors import FuzzCaseError
from repro.fuzz import generate_case, run_case
from repro.wire.smoke import smoke_case


def test_smoke_profile_is_the_ci_shape():
    case = generate_case(0, 0, "smoke", "wire")
    assert (case.n, case.protocol, case.backend) == (3, "fault_tolerant",
                                                     "wire")
    assert case.closed_loop == {"clients": 6, "ops": 2000, "p99_budget": 2.0}
    assert case == smoke_case()


def test_small_smoke_grants_every_op():
    result = run_case(smoke_case(n=3, ops=120, clients=3, seed=4))
    assert result.ok, result.violation
    assert result.grants == 120
    assert result.checksum == ""          # wall-clock runs pin no checksum
    assert result.outcome() == {"ok": True}
    assert result.runtime["wire"]["codec_errors"] == 0
    assert result.runtime["load"]["grants"] == 120


def test_malformed_fault_fails_the_run_as_a_typed_error():
    # No groups, no pair: used to raise KeyError inside a fault task that
    # nobody awaited, and the run came back ok.
    with pytest.raises(FuzzCaseError):
        run_case(smoke_case(n=3, ops=200, clients=2,
                            faults=[{"t": 0.05, "op": "partition"}]))


def test_fault_timed_after_the_load_is_listed_as_not_reached():
    late = {"t": 30.0, "op": "crash", "a": 1}
    early = {"t": 0.0, "op": "reset"}
    result = run_case(smoke_case(n=3, ops=50, clients=2,
                                 faults=[early, late]))
    assert result.ok, result.violation
    assert result.runtime["faults_applied"] == [early]
    assert result.runtime["faults_not_reached"] == [late]
    assert result.runtime["restarts"] == 0


def test_missed_service_level_is_a_violation():
    # A p99 budget no real socket can meet.
    result = run_case(smoke_case(n=3, ops=40, clients=2, p99_budget=1e-7))
    assert not result.ok
    assert result.violation["invariant"] == "service-level"
    assert "p99" in result.violation["detail"]
