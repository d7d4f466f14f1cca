"""Unit tests for the batched scheduling layer."""

import pytest

from repro.errors import SimulationError
from repro.fabric.scheduling import BatchScheduler, SimView
from repro.sim.kernel import Simulator


def _make():
    sim = Simulator()
    return sim, BatchScheduler(sim)


class TestBatchScheduler:
    def test_same_time_posts_share_one_kernel_event(self):
        sim, sched = _make()
        fired = []
        for i in range(10):
            sched.post(5.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))            # FIFO within the bucket
        assert sim.executed_total == 1             # one bucket firing
        assert sched.executed_total == 10          # ten logical entries

    def test_distinct_times_fire_in_time_order(self):
        sim, sched = _make()
        fired = []
        sched.post(3.0, fired.append, "late")
        sched.post(1.0, fired.append, "early")
        sched.post(2.0, fired.append, "mid")
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_negative_delay_raises(self):
        _sim, sched = _make()
        with pytest.raises(SimulationError):
            sched.post(-1.0, int)
        with pytest.raises(SimulationError):
            sched.schedule(-0.5, int)

    def test_cancelled_timer_is_skipped_and_not_counted(self):
        sim, sched = _make()
        fired = []
        keep = sched.schedule(1.0, fired.append, "keep")
        drop = sched.schedule(1.0, fired.append, "drop")
        drop.cancel()
        drop.cancel()  # idempotent
        sim.run()
        assert fired == ["keep"]
        assert sched.executed_total == 1
        assert keep.time == 1.0

    def test_schedule_at_uses_absolute_time(self):
        sim, sched = _make()
        fired = []
        sched.post(2.0, sched.schedule_at, 7.0, fired.append, "abs")
        sim.run()
        assert fired == ["abs"]
        assert sim.now == 7.0

    def test_pending_counts_live_entries_only(self):
        _sim, sched = _make()
        sched.post(1.0, int)
        timer = sched.schedule(1.0, int)
        assert sched.pending() == 2
        timer.cancel()
        assert sched.pending() == 1

    def test_reappend_during_fire_opens_fresh_bucket_same_time(self):
        # An entry posted at delay 0 *while* its time's bucket is firing
        # must run at the same virtual time, after the current bucket —
        # matching the kernel's seq order for late same-time events.
        sim, sched = _make()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sched.post(0.0, lambda: fired.append(("nested", sim.now)))

        sched.post(4.0, first)
        sched.post(4.0, lambda: fired.append(("second", sim.now)))
        sim.run()
        assert fired == [("first", 4.0), ("second", 4.0), ("nested", 4.0)]
        assert sim.executed_total == 2  # original bucket + reopened bucket


class TestSimView:
    def test_views_share_the_kernel_clock(self):
        sim, sched = _make()
        view = SimView(sched)
        view.post(3.0, int)
        sim.run()
        assert view.now == sim.now == 3.0
        assert view.executed_total == 1

    def test_clock_calls_go_through_the_batch_layer(self):
        sim, sched = _make()
        view = SimView(sched)
        seen = []
        view.call_later(2.0, lambda: seen.append(view.time()))
        view.call_later(2.0, seen.append, "cancelled").cancel()
        sim.run()
        assert seen == [2.0]
        assert view.executed_total == 1

    def test_run_and_stop_are_refused(self):
        _sim, sched = _make()
        view = SimView(sched)
        with pytest.raises(SimulationError):
            view.run()
        with pytest.raises(SimulationError):
            view.stop()

    def test_is_a_simulator_for_isinstance_checks(self):
        _sim, sched = _make()
        assert isinstance(SimView(sched), Simulator)
