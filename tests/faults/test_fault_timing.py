"""Fault-timing edge cases, checked under the fuzzing harness's invariant
oracle: token loss injected mid-gimme-chain, and holder crash timed at the
handoff instant.  In both cases regeneration must restore a *unique*
token and serve the waiting requester — and the oracle verifies
uniqueness on every delivery along the way (any violation raises)."""

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.fuzz import InvariantOracle, safety


def ft_config(**kwargs):
    defaults = dict(regen_timeout=150.0, census_window=5.0, loan_timeout=40.0)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def build_watched(n, seed):
    cluster = Cluster.build("fault_tolerant", n=n, seed=seed,
                            config=ft_config())
    oracle = InvariantOracle(cluster, protocol="fault_tolerant",
                             verdict=safety())
    oracle.attach()  # before start: every delivery is checked
    return cluster, oracle


def next_recipient(cluster):
    """The node the in-flight token is heading to (successor of the most
    recent visit) — crashing it swallows the token at the handoff."""
    last = max(cluster.drivers,
               key=lambda i: cluster.drivers[i].core.last_visit)
    return (last + 1) % cluster.n


def live_epochs(cluster):
    return {d.core.epoch for d in cluster.drivers.values() if not d.crashed}


class TestTokenLossMidGimmeChain:
    def test_regeneration_restores_unique_token(self):
        cluster, oracle = build_watched(n=8, seed=11)
        cluster.start()
        cluster.run(until=30)
        last = max(cluster.drivers,
                   key=lambda i: cluster.drivers[i].core.last_visit)
        far = (last + 4) % 8  # far requester: a real multi-hop gimme chain
        cluster.sim.schedule_at(35.0, cluster.request, far)
        # Arm while the gimme chain is in flight: the next token hop
        # vanishes mid-search.
        cluster.sim.schedule_at(35.5, oracle.lose_token)
        cluster.run(until=2000, max_events=2_000_000)

        assert oracle.injected_token_losses == 1
        assert cluster.responsiveness.grants() == 1  # requester served anyway
        assert max(live_epochs(cluster)) >= 1  # via regeneration
        assert cluster.token_census() <= 1
        assert oracle.checks > 0

    def test_loss_without_demand_goes_unnoticed(self):
        """The paper's observation: detection is demand-driven.  A lost
        token with no requester harms nobody and triggers nothing."""
        cluster, oracle = build_watched(n=6, seed=12)
        cluster.start()
        cluster.run(until=20)
        oracle.lose_token()
        cluster.run(until=500, max_events=500_000)
        assert oracle.injected_token_losses == 1
        assert max(live_epochs(cluster)) == 0  # nobody asked, nobody minted


class TestHolderCrashAtHandoff:
    def test_crash_of_inflight_recipient_recovers(self):
        cluster, oracle = build_watched(n=10, seed=21)
        cluster.start()
        cluster.run(until=30)
        victim = next_recipient(cluster)
        cluster.crash(victim)  # the in-flight token dies with its addressee
        cluster.request((victim + 5) % 10)
        cluster.run(until=2000, max_events=2_000_000)

        assert oracle._lineage_lost >= 1  # the oracle saw the token die
        assert cluster.responsiveness.grants() == 1
        assert max(live_epochs(cluster)) >= 1
        assert cluster.token_census() <= 1

    def test_victim_recovery_does_not_duplicate(self):
        """The crashed recipient never *held* the token (it died in
        flight), so recovering it later must not resurrect a second
        lineage; the oracle watches every post-recovery delivery."""
        cluster, oracle = build_watched(n=10, seed=22)
        cluster.start()
        cluster.run(until=30)
        victim = next_recipient(cluster)
        cluster.crash(victim)
        cluster.request((victim + 5) % 10)
        cluster.run(until=1500, max_events=2_000_000)
        assert cluster.responsiveness.grants() == 1

        cluster.drivers[victim].recover()
        survivors = [i for i in range(10) if i != victim]
        for k, node in enumerate(survivors[:4]):
            cluster.sim.schedule_at(cluster.sim.now + 5.0 + k,
                                    cluster.request, node)
        cluster.run(until=cluster.sim.now + 2000, max_events=4_000_000)
        assert cluster.responsiveness.grants() == 5
        assert cluster.token_census() <= 1
