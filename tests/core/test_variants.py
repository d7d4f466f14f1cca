"""Tests for the protocol variants: linear search, directed search, push,
hybrid, and the adaptive-speed behaviour."""

import math

import pytest

from repro.core import DirectedSearchCore, HybridCore, PushCore
from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    AdvertMsg,
    ProbeMsg,
    ProbeReplyMsg,
    RequestMsg,
    TokenMsg,
)
from repro.core.parts import advert_fanout
from repro.core.effects import Send
from repro.workload.generators import FixedRateWorkload, SingleShotWorkload


def cfg(**kwargs):
    return ProtocolConfig(n=kwargs.pop("n", 16), **kwargs)


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


class TestLinearSearch:
    def test_token_jumps_to_requester(self):
        cluster = Cluster.build("linear_search", n=16, seed=1)
        cluster.add_workload(SingleShotWorkload([(50.2, 3)]))
        cluster.run(until=300, max_events=200_000)
        assert cluster.responsiveness.grants() == 1
        assert cluster.messages.count("AskMsg") >= 1

    def test_ask_traverses_ring_linearly(self):
        n = 32
        cluster = Cluster.build("linear_search", n=n, seed=2)
        cluster.add_workload(SingleShotWorkload([(100.2, 5)]))
        cluster.run(until=400, max_events=200_000)
        # The ask walks node-by-node: message count is linear-ish.
        assert cluster.messages.count("AskMsg") >= 4

    def test_rotation_continues_from_requester(self):
        cluster = Cluster.build("linear_search", n=8, seed=3)
        visits = []
        for d in cluster.drivers.values():
            d.subscribe(lambda node, kind, payload, now:
                        visits.append(node) if kind == "token_visit" else None)
        cluster.add_workload(SingleShotWorkload([(20.2, 5)]))
        cluster.run(until=60, max_events=100_000)
        # After node 5 is served, the next circulation visit is node 6.
        idx = visits.index(5, 10)
        assert visits[idx + 1] == 6


class TestDirectedSearch:
    def test_probe_reply_cycle(self):
        core = DirectedSearchCore(2, cfg(n=16))
        effects = core.on_request(0.0)
        out = sends(effects)
        assert isinstance(out[0].msg, ProbeMsg)
        assert out[0].dst == 10

    def test_probed_node_replies_and_traps(self):
        core = DirectedSearchCore(8, cfg(n=16))
        core.last_visit = 3
        msg = ProbeMsg(requester=0, req_seq=1, visit_stamp=7)
        out = sends(core.on_message(0, msg, 0.0))
        reply = out[0].msg
        assert isinstance(reply, ProbeReplyMsg)
        assert reply.last_visit == 3
        assert len(core.traps) == 1

    def test_requester_steers_by_reply(self):
        core = DirectedSearchCore(2, cfg(n=16))
        core.last_visit = 7
        core.on_request(0.0)
        # Probed node staler than us -> token behind it: probe moves back.
        reply = ProbeReplyMsg(prober=10, req_seq=1, last_visit=3,
                              has_token=False)
        out = sends(core.on_message(10, reply, 1.0))
        assert isinstance(out[0].msg, ProbeMsg)
        assert out[0].dst == 6          # 10 - 8//2

    def test_search_stops_when_served(self):
        core = DirectedSearchCore(2, cfg(n=16))
        core.on_request(0.0)
        core.ready = False  # served through rotation meanwhile
        reply = ProbeReplyMsg(prober=10, req_seq=1, last_visit=3,
                              has_token=False)
        assert core.on_message(10, reply, 1.0) == []

    def test_search_stops_at_holder(self):
        core = DirectedSearchCore(2, cfg(n=16))
        core.on_request(0.0)
        reply = ProbeReplyMsg(prober=10, req_seq=1, last_visit=30,
                              has_token=True)
        assert core.on_message(10, reply, 1.0) == []

    def test_end_to_end_service(self):
        cluster = Cluster.build("directed_search", n=32, seed=4)
        cluster.add_workload(SingleShotWorkload([(100.3, 9)]))
        cluster.run(until=400, max_events=200_000)
        assert cluster.responsiveness.grants() == 1
        waits = cluster.responsiveness.waiting_samples
        assert waits[0] <= 3 * math.log2(32) + 4

    def test_directed_uses_replies(self):
        cluster = Cluster.build("directed_search", n=32, seed=5)
        cluster.add_workload(FixedRateWorkload(mean_interval=50.0))
        cluster.run(rounds=30, max_events=1_000_000)
        assert cluster.messages.count("ProbeReplyMsg") > 0
        # Roughly one reply per probe.
        probes = cluster.messages.count("ProbeMsg")
        replies = cluster.messages.count("ProbeReplyMsg")
        assert replies <= probes


class TestAdvertFanout:
    def test_total_messages_cover_ring(self):
        """The fan-out reaches every node exactly once: n-1 messages."""
        n = 16
        pending = [(0, n)]
        reached = set()
        total = 0
        while pending:
            node, span = pending.pop()
            for send in advert_fanout(lambda k: (node + k) % n, 0, 0, span):
                total += 1
                assert send.dst not in reached, "duplicate advert"
                reached.add(send.dst)
                pending.append((send.dst, send.msg.span))
        assert total == n - 1
        assert reached == set(range(1, n))

    def test_depth_is_logarithmic(self):
        n = 64
        depth = 0
        frontier = [(0, n)]
        while frontier:
            nxt = []
            for node, span in frontier:
                for send in advert_fanout(lambda k: (node + k) % n, 0, 0, span):
                    nxt.append((send.dst, send.msg.span))
            if nxt:
                depth += 1
            frontier = nxt
        assert depth <= math.ceil(math.log2(n)) + 1

    def test_odd_ring_sizes_covered(self):
        for n in (3, 5, 7, 13):
            pending = [(0, n)]
            reached = set()
            while pending:
                node, span = pending.pop()
                for send in advert_fanout(lambda k: (node + k) % n, 0, 0, span):
                    reached.add(send.dst)
                    pending.append((send.dst, send.msg.span))
            assert reached == set(range(1, n)), f"n={n} not covered"


class TestPush:
    def test_parked_holder_advertises(self):
        config = cfg(n=8, idle_pause=2.0)
        core = PushCore(0, config)
        effects = core.on_start(0.0)
        adverts = [s for s in sends(effects) if isinstance(s.msg, AdvertMsg)]
        assert adverts, "parked holder must advertise"

    def test_ready_node_requests_known_holder(self):
        config = cfg(n=8, idle_pause=2.0)
        core = PushCore(3, config)
        core.known_holder = 6
        core.known_holder_clock = 10
        out = sends(core.on_request(0.0))
        assert isinstance(out[0].msg, RequestMsg)
        assert out[0].dst == 6

    def test_advert_triggers_pending_request(self):
        config = cfg(n=8, idle_pause=2.0)
        core = PushCore(3, config)
        core.known_holder = None
        core.on_request(0.0)          # nowhere to send: waits
        out = sends(core.on_message(5, AdvertMsg(holder=5, clock=9, span=1), 1.0))
        requests = [s for s in out if isinstance(s.msg, RequestMsg)]
        assert requests and requests[0].dst == 5

    def test_push_light_load_is_fast(self):
        config = ProtocolConfig(idle_pause=2.0)
        cluster = Cluster.build("push", n=32, seed=6, config=config)
        events = [(float(200 + 400 * i), (11 * i) % 32) for i in range(5)]
        cluster.add_workload(SingleShotWorkload(events))
        cluster.run(until=2500, max_events=1_000_000)
        assert cluster.responsiveness.grants() == 5
        # Virtual-root service: requester -> holder -> loan, a handful of
        # hops, far below the ring's n/2.
        assert cluster.responsiveness.average_waiting() < 10

    def test_push_load_concentrates_at_root(self):
        """The tree-root trade-off the paper's conclusion describes: push
        answers fast but pays Θ(n) cheap advertisement traffic per idle
        period, where pull pays O(log n) searches but keeps the (expensive)
        token in continuous rotation."""
        results = {}
        for protocol in ("push", "binary_search"):
            config = ProtocolConfig(idle_pause=2.0 if protocol == "push" else 0.0)
            cluster = Cluster.build(protocol, n=16, seed=7, config=config)
            cluster.add_workload(FixedRateWorkload(mean_interval=40.0))
            cluster.run(until=2000, max_events=1_000_000)
            grants = max(cluster.responsiveness.grants(), 1)
            results[protocol] = {
                "wait": cluster.responsiveness.average_waiting(),
                "cheap_per_grant": cluster.messages.cheap / grants,
                "expensive": cluster.messages.expensive,
            }
        # Push is at least competitive on latency at light load...
        assert results["push"]["wait"] <= results["binary_search"]["wait"] + 2
        # ...pays more cheap traffic per grant (tree fan-out)...
        assert results["push"]["cheap_per_grant"] > \
            2 * results["binary_search"]["cheap_per_grant"]
        # ...and saves most of the expensive rotation messages by parking.
        assert results["push"]["expensive"] < \
            results["binary_search"]["expensive"] / 2


class TestHybrid:
    def test_hybrid_serves_under_light_load(self):
        config = ProtocolConfig(idle_pause=2.0)
        cluster = Cluster.build("hybrid", n=32, seed=8, config=config)
        events = [(float(200 + 400 * i), (11 * i) % 32) for i in range(5)]
        cluster.add_workload(SingleShotWorkload(events))
        cluster.run(until=2500, max_events=1_000_000)
        assert cluster.responsiveness.grants() == 5

    def test_hybrid_falls_back_to_pull_when_stale(self):
        from repro.core.messages import GimmeMsg
        core = HybridCore(3, cfg(n=16))
        core.known_holder = 9
        core.known_holder_clock = 2
        core.last_visit = 10            # our info is fresher: holder moved
        out = sends(core.on_request(0.0))
        assert isinstance(out[0].msg, GimmeMsg)

    def test_hybrid_uses_push_when_fresh(self):
        core = HybridCore(3, cfg(n=16))
        core.known_holder = 9
        core.known_holder_clock = 20
        core.last_visit = 10
        out = sends(core.on_request(0.0))
        assert isinstance(out[0].msg, RequestMsg)

    def test_hybrid_under_heavy_load_behaves_like_binary(self):
        results = {}
        for protocol in ("binary_search", "hybrid"):
            cluster = Cluster.build(protocol, n=16, seed=9)
            cluster.add_workload(FixedRateWorkload(mean_interval=2.0))
            cluster.run(rounds=40, max_events=1_000_000)
            results[protocol] = cluster.responsiveness.average_responsiveness()
        # Without parking, hybrid = binary search (no adverts flow).
        assert abs(results["hybrid"] - results["binary_search"]) < 1.0


class TestAdaptiveSpeedBinary:
    def test_parked_token_found_by_search(self):
        """After warm-up (visit stamps informative everywhere), the search
        locates a slowly-crawling token in O(log n) despite the pauses."""
        config = ProtocolConfig(idle_pause=50.0)
        cluster = Cluster.build("binary_search", n=32, seed=10, config=config)
        # Warm-up: > one full rotation (32 hops x 50 pause) before asking.
        cluster.add_workload(SingleShotWorkload([(5000.3, 9)]))
        cluster.run(until=6000, max_events=500_000)
        waits = cluster.responsiveness.waiting_samples
        assert len(waits) == 1
        assert waits[0] <= 3 * math.log2(32) + 4

    def test_idle_pause_slashes_message_rate(self):
        totals = {}
        for pause in (0.0, 10.0):
            config = ProtocolConfig(idle_pause=pause)
            cluster = Cluster.build("binary_search", n=16, seed=11,
                                    config=config)
            cluster.run(until=2000, max_events=1_000_000)
            totals[pause] = cluster.messages.total
        assert totals[10.0] < totals[0.0] / 5
