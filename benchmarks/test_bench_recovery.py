"""Extension benchmark: token-loss recovery time (paper Section 5).

The holder-to-be crashes with the token in flight; a requester detects the
loss by time-out, runs the who-has census, and a replacement token is
minted by the elected survivor.  The benchmark sweeps the ring size and
reports time-to-service, split into the configured detection delay and the
actual recovery work (census + election + regeneration + service) — the
latter should stay small and roughly size-independent.  The last test
times the same recovery on the supervised asyncio runtime
(:func:`~repro.analysis.experiments.run_aio_recovery`).
"""

from conftest import emit

from repro.analysis.experiments import run_aio_recovery
from repro.analysis.tables import format_table
from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig

REGEN_TIMEOUT = 100.0
CENSUS_WINDOW = 5.0


def crash_and_recover(n: int, seed: int) -> dict:
    config = ProtocolConfig(regen_timeout=REGEN_TIMEOUT,
                            census_window=CENSUS_WINDOW,
                            loan_timeout=50.0)
    cluster = Cluster.build("fault_tolerant", n=n, seed=seed, config=config)
    minted = []
    for driver in cluster.drivers.values():
        driver.subscribe(lambda node, kind, payload, now:
                         minted.append(now) if kind == "regenerated" else None)
    cluster.start()
    cluster.run(until=3 * n)
    # Crash the in-flight recipient: the token dies in delivery.
    last = max(cluster.drivers,
               key=lambda i: cluster.drivers[i].core.last_visit)
    victim = (last + 1) % n
    cluster.crash(victim)
    t_request = cluster.sim.now
    requester = (victim + n // 3 + 1) % n
    if requester == victim:
        requester = (victim + 1) % n
    cluster.request(requester)
    cluster.run(until=t_request + 20 * n + 500, max_events=10_000_000)
    waits = cluster.responsiveness.waiting_samples
    assert waits, f"n={n}: request never served after crash"
    total = waits[0]
    return {
        "n": n,
        "time_to_service": total,
        "detection (configured)": REGEN_TIMEOUT,
        "recovery_work": total - REGEN_TIMEOUT,
        "regenerations": len(minted),
    }


def test_recovery_time_sweep(results_dir):
    rows = [crash_and_recover(n, seed=7) for n in (8, 16, 32, 64)]
    text = format_table(
        rows,
        ["n", "time_to_service", "detection (configured)",
         "recovery_work", "regenerations"],
        title=("Recovery — holder crash to next grant "
               f"(detection timeout {REGEN_TIMEOUT:g})"),
    )
    emit(results_dir, "recovery_sweep", text)
    for row in rows:
        # Service resumed, exactly one regeneration, and the recovery work
        # beyond the configured detection delay stays modest: census window
        # plus a few message rounds, not another full detection cycle.
        assert row["regenerations"] >= 1
        assert row["recovery_work"] <= CENSUS_WINDOW + 4 * row["n"] + 20


def test_aio_mttr_under_supervision(results_dir):
    """MTTR of the *runtime* (asyncio + supervisor, whose requesters
    suspect the token lost at a multiple of their mean grant wait), the
    counterpart of the DES sweep above: recovery within a couple of
    virtual seconds."""
    row = run_aio_recovery(cycles=4)
    text = format_table(
        [row], ["cycles", "mttr", "max_ttr", "restarts"],
        title="Runtime MTTR — supervised crash-to-grant (virtual seconds)",
    )
    emit(results_dir, "aio_mttr", text)
    # Every crash cycle recovered, the supervisor repaired every victim,
    # and recovery stayed well under the 8 s SLO the chaos harness
    # enforces.
    assert row["grants"] == row["cycles"]
    assert row["restarts"] >= row["cycles"]
    assert 0.0 < row["mttr"] < 4.0
    assert row["max_ttr"] < 8.0
