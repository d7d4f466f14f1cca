"""Differential tests: FastFabric must match TokenFabric bit for bit.

Keys are independent, so running compiled lanes sequentially must be
observably identical to multiplexing object lanes on one kernel.  The
comparison covers per-key send digests (times, endpoints, payloads),
grant counts, and fabric-level percentiles under open-loop Zipf traffic.
"""

import zlib

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import FastSimUnsupportedError, SimulationError
from repro.fabric import FastFabric, TokenFabric
from repro.workload.keyed import ClosedLoopKeyedWorkload, ZipfKeyedWorkload

_KEYS = 24
_HORIZON = 1500.0


def _object_run():
    fabric = TokenFabric(seed=77)
    digests = []
    for i in range(_KEYS):
        lane = fabric.add_key(f"lock/{i:03d}", protocol="binary_search", n=4)
        state = {"crc": 0}
        sim = lane.sim

        def _digest(src, dst, msg, state=state, sim=sim):
            record = f"{sim.now:.6f}|{src}|{dst}|{msg!r}"
            state["crc"] = zlib.crc32(record.encode("utf-8"), state["crc"])

        lane.network.on_send.append(_digest)
        digests.append(state)
    fabric.add_workload(ZipfKeyedWorkload(mean_interval=0.5, s=1.1,
                                          home_bias=0.7))
    fabric.run(until=_HORIZON)
    return fabric, [f"{d['crc'] & 0xFFFFFFFF:08x}" for d in digests]


def _fast_run():
    fabric = FastFabric(seed=77)
    for i in range(_KEYS):
        fabric.add_key(f"lock/{i:03d}", protocol="binary_search", n=4,
                       digest=True)
    fabric.add_workload(ZipfKeyedWorkload(mean_interval=0.5, s=1.1,
                                          home_bias=0.7))
    fabric.run(until=_HORIZON)
    return fabric


class TestBackendEquivalence:
    def test_per_key_digests_grants_and_percentiles_match(self):
        obj, obj_digests = _object_run()
        fast = _fast_run()
        fast_digests = [lane.send_checksum for lane in fast.lanes()]
        assert obj_digests == fast_digests
        obj_grants = [s.grants for s in obj.metrics.stats]
        fast_grants = [s.grants for s in fast.metrics.stats]
        assert obj_grants == fast_grants
        assert obj.metrics.total_grants > 0
        assert obj.metrics.percentile(99.0) == fast.metrics.percentile(99.0)
        assert obj.sent_total == fast.sent_total

    def test_lane_seeds_agree_across_backends(self):
        assert (TokenFabric(seed=5).lane_seed("k")
                == FastFabric(seed=5).lane_seed("k"))


def test_2048_lane_zipf_run_pinned():
    """The compiled backend's own behaviour at scale, release over
    release: 2,048 lanes under a compiled open-loop Zipf stream,
    ~half a million events, pinned by counts and the fabric digest."""
    fabric = FastFabric(seed=2001)
    config = ProtocolConfig(idle_pause=8.0)
    for k in range(2_048):
        fabric.add_key(f"lock/{k:04d}", protocol="binary_search", n=4,
                       config=config, digest=True)
    fabric.add_workload(ZipfKeyedWorkload(mean_interval=0.05, s=1.1,
                                          home_bias=0.7))
    fabric.run(until=1_000.0)
    assert (fabric.executed_total, fabric.sent_total,
            fabric.metrics.total_grants) == (521849, 283889, 13832)
    assert fabric.checksum() == "2238b961"


class TestFastFabricLimits:
    def test_closed_loop_workload_is_refused(self):
        fabric = FastFabric()
        fabric.add_key("a")
        with pytest.raises(FastSimUnsupportedError):
            fabric.add_workload(ClosedLoopKeyedWorkload())

    def test_unsupported_protocol_is_refused(self):
        fabric = FastFabric()
        with pytest.raises(FastSimUnsupportedError):
            fabric.add_key("a", protocol="fault_tolerant")

    def test_run_is_one_shot(self):
        fabric = FastFabric()
        fabric.add_key("a", n=4)
        fabric.add_workload(ZipfKeyedWorkload(mean_interval=5.0))
        fabric.run(until=50.0)
        with pytest.raises(SimulationError):
            fabric.run(until=100.0)
