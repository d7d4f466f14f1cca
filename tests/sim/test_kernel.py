"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_same_time_fifo_by_seq(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "low", priority=5)
        sim.schedule(1.0, log.append, "high", priority=0)
        sim.run()
        assert log == ["high", "low"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            log.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestRunBounds:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(10.0, log.append, 10)
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_until_with_empty_queue_still_advances(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i), log.append, i)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert log == [0, 1, 2]

    def test_stop_from_handler(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("x"), sim.stop()))
        sim.schedule(2.0, log.append, "never")
        sim.run()
        assert log == ["x"]
        assert sim.pending() == 1

    def test_not_reentrant(self):
        sim = Simulator()

        def evil():
            sim.run()

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, log.append, "no")
        sim.schedule(2.0, log.append, "yes")
        event.cancel()
        sim.run()
        assert log == ["yes"]

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1
        event.cancel()
        assert sim.pending() == 0

    def test_cancel_from_handler(self):
        sim = Simulator()
        log = []
        later = sim.schedule(5.0, log.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert log == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, log.append, "fired")
        sim.run()
        event.cancel()  # already executed: must not corrupt counters
        assert log == ["fired"]
        assert sim.pending() == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1
        assert sim.run() == 1


class TestCompaction:
    def test_mass_cancellation_compacts_queue(self):
        """Cancelling most of a timer storm shrinks the heap eagerly
        (the A4 retry-timer pattern: schedule, then cancel on grant)."""
        sim = Simulator()
        log = []
        survivors = []
        handles = []
        for i in range(1000):
            handles.append(sim.schedule(float(i) + 1.0, log.append, i))
        for i, event in enumerate(handles):
            if i % 100 != 0:
                event.cancel()
            else:
                survivors.append(i)
        # Compaction keeps the physical heap near the live-event count
        # instead of letting 990 corpses sit until run() drains them.
        assert sim.pending() == len(survivors)
        assert len(sim._queue) < 2 * len(survivors) + 2
        fired = sim.run()
        assert fired == len(survivors)
        assert log == survivors  # still in time order after heapify

    def test_interleaved_schedule_cancel_storm(self):
        """Cancel nine in ten timers as they are scheduled (the A4 pattern
        under load): compaction runs repeatedly *between* schedules, and
        exactly the survivors fire."""
        sim = Simulator()
        survivors = 0
        for i in range(2000):
            event = sim.schedule(float(i % 97) + 1.0, int)
            if i % 10 != 0:
                event.cancel()
            else:
                survivors += 1
        assert survivors == sim.pending() == 200
        assert sim.run() == 200

    def test_compaction_mid_run_keeps_local_alias_valid(self):
        """run() holds a local alias of the queue; in-place compaction
        triggered by a handler cancelling en masse must stay visible."""
        sim = Simulator()
        log = []
        timers = [sim.schedule(50.0 + i, log.append, "dead") for i in range(200)]
        sim.schedule(1.0, lambda: [t.cancel() for t in timers])
        sim.schedule(300.0, log.append, "tail")
        assert sim.run() == 2
        assert log == ["tail"]

    def test_pending_is_live_count_not_heap_length(self):
        sim = Simulator()
        events = [sim.schedule(float(i) + 1.0, lambda: None) for i in range(10)]
        events[3].cancel()
        events[7].cancel()
        assert sim.pending() == 8


class TestPostFastPath:
    def test_post_runs_like_schedule(self):
        sim = Simulator()
        log = []
        sim.post(2.0, log.append, "b")
        sim.post(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_post_priority_tiebreak(self):
        sim = Simulator()
        log = []
        sim.post(1.0, log.append, "late", priority=1)
        sim.post(1.0, log.append, "early", priority=0)
        sim.run()
        assert log == ["early", "late"]

    def test_post_counts_as_pending(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        assert sim.pending() == 1
        assert sim.run() == 1
        assert sim.pending() == 0

    def test_post_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-0.5, lambda: None)


class TestExecutedTotal:
    def test_accumulates_across_runs(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.executed_total == 1
        sim.run()
        assert sim.executed_total == 2
