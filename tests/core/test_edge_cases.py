"""Edge cases: tiny rings, odd sizes, config validation, message defaults,
and the examples' importability."""

import importlib.util
import pathlib

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.core.messages import GimmeMsg, LoanMsg, TokenMsg
from repro.errors import ConfigError
from repro.workload.generators import SingleShotWorkload

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestTinyRings:
    @pytest.mark.parametrize("protocol", ["ring", "binary_search",
                                          "linear_search"])
    def test_single_node_self_service(self, protocol):
        cluster = Cluster.build(protocol, n=1, seed=0)
        cluster.start()
        cluster.request(0)
        cluster.run(until=10, max_events=1000)
        assert cluster.responsiveness.grants() == 1
        assert cluster.responsiveness.waiting_samples[0] == 0.0

    def test_single_node_rejects_rounds_bound(self):
        # The token never moves, so a rounds bound could only end on the
        # event budget.
        with pytest.raises(ConfigError, match="at least 2 nodes"):
            Cluster.build("ring", n=1).run(rounds=1, max_events=10_000)

    @pytest.mark.parametrize("protocol", ["ring", "binary_search",
                                          "linear_search",
                                          "directed_search"])
    def test_two_nodes(self, protocol):
        cluster = Cluster.build(protocol, n=2, seed=0)
        cluster.add_workload(SingleShotWorkload([(5.5, 1), (9.5, 0)]))
        cluster.run(until=100, max_events=10_000)
        assert cluster.responsiveness.grants() == 2

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 31])
    def test_odd_ring_sizes(self, n):
        cluster = Cluster.build("binary_search", n=n, seed=1)
        events = [(float(10 + 7 * k), (3 * k) % n) for k in range(4)]
        cluster.add_workload(SingleShotWorkload(events))
        cluster.run(until=1000, max_events=200_000)
        assert cluster.responsiveness.outstanding == 0

    def test_n3_search_span_one(self):
        # n=3: the initial span is 1; the single gimme must suffice or the
        # rotation serves within 3 hops.
        cluster = Cluster.build("binary_search", n=3, seed=2)
        cluster.add_workload(SingleShotWorkload([(10.4, 2)]))
        cluster.run(until=50, max_events=10_000)
        assert cluster.responsiveness.grants() == 1
        assert cluster.responsiveness.max_waiting() <= 6


class TestConfigValidation:
    def test_negative_fields_rejected(self):
        for field, value in [("idle_pause", -1.0), ("service_time", -0.1),
                             ("retry_timeout", -5.0), ("regen_timeout", -1.0),
                             ("loan_timeout", -1.0),
                             ("served_piggyback", -1)]:
            config = ProtocolConfig(n=4, **{field: value})
            with pytest.raises(ConfigError):
                config.validate()

    def test_bad_gc_policy_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=4, trap_gc="sometimes").validate()

    def test_zero_census_window_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=4, census_window=0.0).validate()

    def test_valid_config_chains(self):
        config = ProtocolConfig(n=4)
        assert config.validate() is config


class TestMessageDefaults:
    def test_reliability_classes(self):
        assert TokenMsg(clock=0, round_no=0).reliable
        assert LoanMsg(clock=0, round_no=0, lender=0, requester=1,
                       req_seq=1).reliable
        assert not GimmeMsg(requester=0, req_seq=1, span=4,
                            visit_stamp=0).reliable

    def test_messages_are_frozen(self):
        msg = TokenMsg(clock=0, round_no=0)
        with pytest.raises(Exception):
            msg.clock = 5

    def test_token_defaults(self):
        msg = TokenMsg(clock=3, round_no=1)
        assert msg.served == ()
        assert msg.epoch == 0
        assert msg.suspects == ()
        assert msg.membership is None


class TestExamplesImportable:
    @pytest.mark.parametrize("name", [
        "quickstart",
        "total_order_broadcast",
        "distributed_mutex_asyncio",
        "fault_recovery",
        "trs_refinement_demo",
        "token_telemetry",
        "group_chat",
    ])
    def test_example_compiles_and_imports(self, name):
        """Examples must import cleanly (all work behind __main__ guards)."""
        path = EXAMPLES / f"{name}.py"
        assert path.exists(), f"example {name} missing"
        spec = importlib.util.spec_from_file_location(f"example_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module, "main")


class TestForwardThrottle:
    def test_queued_gimme_released_on_token_visit(self):
        from repro.core import BinarySearchCore
        from repro.core.effects import Send, recorded
        config = ProtocolConfig(n=16, forward_throttle=True)
        core = BinarySearchCore(4, config, initial_holder=0)
        core.last_visit = 9
        # First gimme forwards (to 4 + 8//2 = 8) and consumes the budget.
        first = recorded(core.on_message, 0, GimmeMsg(
            requester=0, req_seq=1, span=8, visit_stamp=2), 0.0)
        assert any(isinstance(e, Send) for e in first)
        assert core._gimme_inflight
        # Second is queued.
        second = recorded(core.on_message, 1, GimmeMsg(
            requester=1, req_seq=1, span=8, visit_stamp=2), 0.1)
        assert second == []
        assert len(core._gimme_queue) == 1
        # Token visit releases the budget and flushes the queue; since the
        # flusher now *holds* the token, the queued requester is trapped
        # and served by loan (FIFO: the first trap, requester 0) rather
        # than forwarded — strictly better.
        effects = recorded(core.on_message, 3, TokenMsg(clock=10, round_no=0), 1.0)
        assert core._gimme_queue == []
        assert core.lent_to == 0
        assert 1 in [t.requester for t in core.traps]

    def test_throttled_cluster_still_serves_everyone(self):
        config = ProtocolConfig(forward_throttle=True)
        cluster = Cluster.build("binary_search", n=16, seed=3, config=config)
        events = [(float(5 + 2 * k), (5 * k) % 16) for k in range(8)]
        cluster.add_workload(SingleShotWorkload(events))
        cluster.run(until=500, max_events=200_000)
        assert cluster.responsiveness.outstanding == 0
