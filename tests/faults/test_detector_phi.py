"""Phi-accrual timeout unit tests (exponential-tail form, fed with waits)."""

import math

import pytest

from repro.faults.detector import PhiAccrualDetector

LN10 = math.log(10.0)


def fed(*intervals, **kw) -> PhiAccrualDetector:
    d = PhiAccrualDetector(**kw)
    for interval in intervals:
        d.record(interval)
    return d


class TestObservation:
    def test_no_history_no_suspicion(self):
        d = PhiAccrualDetector()
        assert d.samples == 0
        assert d.mean_interval() is None
        assert d.timeout_after(8.0) is None

    def test_mean_of_regular_cadence(self):
        d = fed(1.0, 1.0, 1.0, 1.0)
        assert d.samples == 4
        assert d.mean_interval() == pytest.approx(1.0)

    def test_window_evicts_old_intervals(self):
        d = fed(10.0, 10.0, 1.0, 1.0, window=2)
        # Only the last two intervals (both 1.0) survive the window.
        assert d.samples == 2
        assert d.mean_interval() == pytest.approx(1.0)

    def test_zero_interval_floored(self):
        d = fed(0.0, min_interval=1e-6)
        assert d.mean_interval() == pytest.approx(1e-6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualDetector(window=0)


class TestSuspicion:
    def test_timeout_after_inverts_phi(self):
        # phi(t) = t / (mean * ln 10) crosses the threshold at
        # threshold * mean * ln 10.
        d = fed(0.25, 0.25, 0.25, 0.25)
        assert d.timeout_after(8.0) == pytest.approx(8.0 * 0.25 * LN10)

    def test_adapts_to_cadence(self):
        fast = fed(0.01, 0.01, 0.01, 0.01)
        slow = fed(10.0, 10.0, 10.0, 10.0)
        # The adaptive timeout tracks the observed waits: a slow ring
        # waits proportionally longer before suspecting.
        assert fast.timeout_after(8.0) < slow.timeout_after(8.0)
        ratio = slow.timeout_after(8.0) / fast.timeout_after(8.0)
        assert ratio == pytest.approx(1000.0)
