"""Fault-tolerance tests: census bookkeeping, token-loss detection,
regeneration, epoch fencing, suspect routing, and loan reclaim."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.core.parts import DirectedSearch
from repro.core.protocols import REGISTRY, ROWS, assemble
from repro.core.regeneration import Regeneration
from repro.faults.detector import Census
from repro.workload.generators import SingleShotWorkload


def ft_config(**kwargs):
    defaults = dict(regen_timeout=150.0, census_window=5.0, loan_timeout=40.0)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def find_holder(cluster):
    for i, d in cluster.drivers.items():
        if d.core.has_token or d.core.lent_to is not None:
            return i
    return None


def next_recipient(cluster):
    """The node the in-flight token is heading to: the successor of the
    most recently visited node.  With zero-time local handling the token is
    always in flight between run() calls, so crashing this node swallows
    the token deterministically."""
    last = max(cluster.drivers,
               key=lambda i: cluster.drivers[i].core.last_visit)
    return (last + 1) % cluster.n


class TestCensus:
    def test_complete_when_all_reply(self):
        c = Census(0, 1, [0, 1, 2])
        assert c.population == [1, 2]
        c.record(1, 5, False)
        assert not c.complete()
        c.record(2, 7, False)
        assert c.complete()

    def test_token_alive_detection(self):
        c = Census(0, 1, [0, 1, 2])
        c.record(1, 5, False)
        assert not c.token_alive()
        c.record(2, 7, True)
        assert c.token_alive()
        assert Census(0, 1, [0, 1]).token_alive(origin_holds=True)

    def test_suspects_are_non_responders(self):
        c = Census(0, 1, [0, 1, 2, 3])
        c.record(1, 5, False)
        assert c.suspects() == {2, 3}

    def test_freshest_includes_origin(self):
        c = Census(0, 1, [0, 1, 2])
        c.record(1, 5, False)
        c.record(2, 3, False)
        assert c.freshest(origin_clock=9) == (0, 9)
        assert c.freshest(origin_clock=1) == (1, 5)

    def test_elect_regenerator_skips_dead(self):
        # Ring 0..3; freshest sighting at 1; node 2 dead -> 3 regenerates.
        c = Census(0, 1, [0, 1, 2, 3])
        c.record(1, 9, False)
        c.record(3, 2, False)
        assert c.elect_regenerator([0, 1, 2, 3], origin_clock=0) == 3

    def test_elect_wraps_around(self):
        c = Census(2, 1, [0, 1, 2, 3])
        c.record(3, 9, False)   # freshest at 3; 0,1 dead -> origin 2 elected
        assert c.elect_regenerator([0, 1, 2, 3], origin_clock=0) == 2


class TestRegeneration:
    #: The core under test — its search part is the parameter: the
    #: registered row searches by gimme, the subclass below by probe.
    core = REGISTRY["fault_tolerant"]

    def build(self, n, seed, config):
        return Cluster(self.core, n, seed=seed, config=config)

    def test_holder_crash_recovers_service(self):
        cluster = self.build(12, 1, ft_config())
        cluster.start()
        cluster.run(until=30)
        victim = next_recipient(cluster)
        cluster.crash(victim)
        requester = (victim + 5) % 12
        cluster.request(requester)
        cluster.run(until=1200, max_events=2_000_000)
        assert cluster.responsiveness.grants() == 1
        # Regeneration event was delivered at the minting node.
        epochs = {d.core.epoch for d in cluster.drivers.values()
                  if not d.crashed}
        assert max(epochs) >= 1

    def test_service_continues_after_recovery(self):
        cluster = self.build(12, 2, ft_config())
        cluster.start()
        cluster.run(until=30)
        victim = next_recipient(cluster)
        cluster.crash(victim)
        survivors = [i for i in range(12) if i != victim]
        for k, node in enumerate(survivors[:6]):
            cluster.sim.schedule_at(40.0 + k, cluster.request, node)
        cluster.run(until=3000, max_events=5_000_000)
        assert cluster.responsiveness.grants() == 6

    def test_suspects_are_skipped_by_rotation(self):
        cluster = self.build(8, 3, ft_config())
        cluster.start()
        cluster.run(until=10)
        victim = next_recipient(cluster)
        cluster.crash(victim)
        cluster.request((victim + 3) % 8)
        cluster.run(until=1200, max_events=2_000_000)
        # After recovery the suspects set at live nodes includes the victim.
        flagged = [d.core for d in cluster.drivers.values()
                   if not d.crashed and victim in d.core.suspected]
        assert flagged, "no survivor learned about the victim"

    def test_no_duplicate_tokens_after_regeneration(self):
        cluster = self.build(10, 4, ft_config())
        cluster.start()
        cluster.run(until=20)
        victim = next_recipient(cluster)
        cluster.crash(victim)
        for k in range(3):
            cluster.sim.schedule_at(30.0 + k, cluster.request,
                                    (victim + 2 + k) % 10)
        cluster.run(until=2500, max_events=5_000_000)
        # At-rest census never exceeds one among live nodes; ProtocolError
        # would have fired on any same-epoch duplication.
        assert cluster.token_census() <= 1

    def test_loan_reclaim_after_borrower_crash(self):
        cluster = self.build(8, 5, ft_config(loan_timeout=30.0))
        cluster.start()
        # Node 4 will request; crash it the moment it is granted, before
        # the zero-time auto-release return can be delivered? The return is
        # sent in the same instant, so instead crash a node that is *about*
        # to receive a loan: intercept via the grant hook is too late.
        # Simpler deterministic variant: crash the requester right after
        # its gimme lands a trap, so the loan flies to a dead node.
        cluster.request(4)
        cluster.run(until=1.5)       # gimme sent at t=0, lands at t=1
        cluster.crash(4)
        cluster.run(until=400, max_events=1_000_000)
        # The lender reclaimed the token (epoch bumped) and rotation goes on.
        assert cluster.token_census() <= 1
        epochs = {d.core.epoch for d in cluster.drivers.values()
                  if not d.crashed}
        # Either the loan never fired (trap GC'd) or the reclaim bumped the
        # epoch; in both cases the system still serves new requests:
        cluster.request(6)
        cluster.run(until=600, max_events=1_000_000)
        assert cluster.responsiveness.grants() >= 1

    def test_false_alarm_rearms_quietly(self):
        """A slow system (token alive) must not regenerate."""
        cluster = self.build(8, 6, ft_config(regen_timeout=5.0))
        cluster.start()
        cluster.request(3)
        cluster.run(until=300, max_events=1_000_000)
        assert cluster.responsiveness.grants() == 1
        epochs = {d.core.epoch for d in cluster.drivers.values()}
        assert epochs == {0}, "regenerated despite a live token"

    def test_stale_epoch_token_discarded(self):
        from repro.core.messages import TokenMsg
        core = self.core(1, ft_config(n=4))
        core.epoch = 3
        assert core.on_message(0, TokenMsg(clock=9, round_no=1, epoch=1),
                               0.0) == []
        assert not core.has_token

    def test_newer_epoch_adopted(self):
        from repro.core.effects import Send
        from repro.core.messages import TokenMsg
        core = self.core(1, ft_config(n=4))
        effects = core.on_message(0, TokenMsg(clock=9, round_no=1, epoch=2),
                                  0.0)
        assert core.epoch == 2
        # The token was accepted (and, with no demand, forwarded onward
        # under the adopted epoch).
        sends = [e for e in effects if isinstance(e, Send)]
        assert sends and sends[0].msg.epoch == 2

    def test_mint_is_idempotent_per_epoch(self):
        from repro.core.effects import Deliver
        from repro.core.messages import RegenerateMsg
        core = self.core(1, ft_config(n=4))
        first = core._mint(RegenerateMsg(new_clock=50, epoch=1), 0.0)
        minted = [e for e in first
                  if isinstance(e, Deliver) and e.kind == "regenerated"]
        assert minted and core.epoch == 1
        dup = core._mint(RegenerateMsg(new_clock=60, epoch=1), 1.0)
        assert dup == []
        assert core.clock == 50

    def test_deferred_loan_return_keeps_the_loans_epoch(self):
        """B serves a loan from A (epoch 0) under hold_until_release when a
        regenerated epoch-5 token reaches it.  On release the return must
        carry the *loan's* epoch — stamping B's current one made A adopt
        epoch 5, take the token back and rotate a second epoch-5 token —
        and B's own token must move on instead of being stranded."""
        from repro.core.effects import Send
        from repro.core.messages import LoanMsg, LoanReturnMsg, TokenMsg
        config = ft_config(n=4, hold_until_release=True)
        lender, borrower = self.core(0, config), self.core(1, config)
        borrower.on_request(0.0)
        lender.has_token, lender.lent_to = False, 1
        borrower.on_message(0, LoanMsg(clock=0, round_no=0, lender=0,
                                       requester=1, req_seq=1), 1.0)
        assert borrower._serving
        borrower.on_message(3, TokenMsg(clock=12, round_no=3, epoch=5), 2.0)
        sent = {type(e.msg): e for e in borrower.on_release(3.0)
                if isinstance(e, Send)}
        assert sent[LoanReturnMsg].dst == 0
        assert sent[LoanReturnMsg].msg.epoch == 0
        assert sent[TokenMsg].msg.epoch == 5 and not borrower.has_token
        # The lender's lineage was retired, not promoted: it takes its
        # epoch-0 token back and the fence kills it at its next hop.
        lender.on_message(1, sent[LoanReturnMsg].msg, 4.0)
        assert lender.epoch == 0


class TestRegenerationOverDirectedSearch(TestRegeneration):
    """The same layer over the other search part — directed × regeneration,
    the combination the class tree could not express — assembled here from
    the table's parts, not registered under a name."""

    core = assemble("directed_ft", (Regeneration, DirectedSearch))


class TestRegenerationOverTheRing(TestRegeneration):
    """The same layer over the rotation-only row: a fault-tolerant ring,
    which a hand-written ``RingCore`` could not be given."""

    core = assemble("ring_ft", (Regeneration,) + ROWS["ring"].parts)
