"""Tests for keyed (per-fabric) workload generators."""

import pytest

from repro.errors import ConfigError
from repro.fabric import TokenFabric
from repro.workload.keyed import (ClosedLoopKeyedWorkload, ZipfKeyedWorkload,
                                  zipf_cdf)


class TestZipfCdf:
    def test_cdf_is_monotone_and_tops_out_at_one(self):
        cdf = zipf_cdf(100, 1.1)
        assert len(cdf) == 100
        assert all(a < b for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == 1.0

    def test_zero_exponent_is_uniform(self):
        cdf = zipf_cdf(4, 0.0)
        assert cdf == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_skew_concentrates_mass_on_low_ranks(self):
        flat, skewed = zipf_cdf(1000, 0.5), zipf_cdf(1000, 1.5)
        assert skewed[9] > flat[9]  # top-10 mass grows with s

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigError):
            zipf_cdf(0, 1.0)
        with pytest.raises(ConfigError):
            zipf_cdf(10, -0.1)


def _fabric(n_keys=12, seed=31):
    fabric = TokenFabric(seed=seed)
    for i in range(n_keys):
        fabric.add_key(f"k{i}", n=3)
    return fabric


class TestZipfKeyedWorkload:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigError):
            ZipfKeyedWorkload(mean_interval=0.0)
        with pytest.raises(ConfigError):
            ZipfKeyedWorkload(mean_interval=1.0, home_bias=1.5)

    def test_bind_to_empty_fabric_raises(self):
        with pytest.raises(ConfigError):
            TokenFabric().add_workload(ZipfKeyedWorkload(mean_interval=1.0))

    def test_start_offset_delays_first_arrival(self):
        fabric = _fabric()
        fabric.add_workload(ZipfKeyedWorkload(mean_interval=1.0, start=50.0))
        fabric.run(until=49.0)
        assert fabric.metrics.total_requests == 0


class TestClosedLoopKeyedWorkload:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigError):
            ClosedLoopKeyedWorkload(clients=0)
        with pytest.raises(ConfigError):
            ClosedLoopKeyedWorkload(think_time=0.0)

    def test_population_self_throttles(self):
        fabric = _fabric()
        clients = 10
        workload = ClosedLoopKeyedWorkload(clients=clients, think_time=1.0)
        fabric.add_workload(workload)
        fabric.run(until=500.0)
        metrics = fabric.metrics
        assert metrics.total_grants > 0
        # Closed loop: pending demand can never exceed the population.
        # (Offered *requests* may outnumber grants by more than the
        # population: arrivals on an already-waiting seat are dropped by
        # the lane and re-offered after the next grant, each coalescing
        # counting one extra offered request.)
        in_flight = sum(workload._pending.values())
        assert 0 <= in_flight <= clients

    def test_grants_keep_flowing(self):
        fabric = _fabric()
        fabric.add_workload(ClosedLoopKeyedWorkload(clients=6,
                                                    think_time=2.0))
        fabric.run(grants=100)
        assert fabric.metrics.total_grants >= 100
        fabric.assert_single_token_per_key()
