"""Soak tier: a real-socket 5-node cluster serving >= 10k ops.

Marked ``slow`` (and ``soak``) so tier-1 (`pytest -x -q`, which deselects
``slow``) stays fast; run explicitly with ``pytest -m soak`` or let the
CI soak job pick it up.  The assertions are the service-level contract:
every op granted, zero invariant violations, zero client errors, p99
acquire wait bounded.
"""

import pytest

from repro.fuzz import run_case
from repro.wire.smoke import smoke_case


@pytest.mark.slow
@pytest.mark.soak
class TestWireSoak:
    def test_five_node_cluster_serves_10k_ops(self):
        result = run_case(smoke_case(
            n=5, ops=10_000, clients=8, protocol="fault_tolerant",
            seed=2001, delay=0.002, p99_budget=2.0))
        load = result.runtime["load"]
        assert load["grants"] == 10_000
        assert load["failures"] == 0
        assert load["errors"] == 0
        # No oracle breach, and no service-level miss (p99 within the
        # 2000 ms budget) either.
        assert result.violation is None, result.violation
        assert result.ok
        # The ops genuinely crossed sockets: every acquire/release round
        # trips the service connection, and node traffic rides the wire.
        wire = result.runtime["wire"]
        assert wire["frames_sent"] > 10_000
        assert wire["codec_errors"] == 0

    def test_chaos_recovery_under_load(self):
        """Crash a node and sever every live connection mid-soak: the
        supervisor restarts it, links redial, and the run still grants
        every op with a clean oracle (virtual-time chaos semantics
        reproduced on real sockets)."""
        result = run_case(smoke_case(
            n=5, ops=1_500, clients=6, protocol="fault_tolerant",
            seed=7, delay=0.002, p99_budget=5.0,
            faults=[
                {"t": 0.2, "op": "crash", "a": 2},
                {"t": 0.6, "op": "reset"},
            ]))
        load = result.runtime["load"]
        assert load["grants"] == 1_500
        assert load["errors"] == 0
        assert result.violation is None, result.violation
        assert result.runtime["faults_not_reached"] == []
        assert result.runtime["restarts"] >= 1   # the supervisor acted
        assert result.ok
