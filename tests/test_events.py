"""Tests for the discrete-event simulation core."""

import pytest

from repro.simulator import SimSanitizer, Simulation


class TestSimulation:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulation()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_events_scheduled_during_run(self):
        sim = Simulation()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(1.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 2.0)]

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=3.0)
        assert log == [1]
        assert sim.now == 3.0
        sim.run()
        assert log == [1, 5]

    def test_max_events_limit(self):
        sim = Simulation()
        count = []

        def recur():
            count.append(1)
            sim.schedule(1.0, recur)

        sim.schedule(0.0, recur)
        sim.run(max_events=10)
        assert len(count) == 10

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_time_regression_raises(self):
        # Only tampering puts an event before now; the plain loop refuses
        # to run it (the sanitizer's reports and recovers instead).
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim._now = 5.0
        with pytest.raises(RuntimeError, match="precedes now"):
            sim.run()
        assert fired == []

    def test_len_and_pending_mark(self):
        sim = Simulation()
        assert len(sim) == 0
        sim.schedule(2.0, lambda: None)
        assert len(sim) == 1
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.was_pending_at(mark)))
        mark = sim.mark()
        sim.schedule(1.0, lambda: seen.append(sim.was_pending_at(mark)))
        assert sim.was_pending_at(mark)  # outside run() counts as pending
        sim.run()
        assert seen == [True, False]

    def test_events_processed_counter(self):
        sim = Simulation()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestRunEdgeCases:
    """Untested corners of the event loop every trace depends on."""

    def test_until_exactly_on_event_timestamp_fires_event(self):
        # The cutoff is inclusive: an event at exactly `until` executes.
        sim = Simulation()
        log = []
        sim.schedule(2.0, lambda: log.append("at"))
        sim.schedule(2.0 + 1e-9, lambda: log.append("after"))
        sim.run(until=2.0)
        assert log == ["at"]
        assert sim.now == 2.0

    def test_until_boundary_event_scheduling_more_work_at_until(self):
        # An event at `until` may schedule a zero-delay follow-up, which
        # lands exactly at `until` and therefore also fires.
        sim = Simulation()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("chained"))

        sim.schedule(3.0, first)
        sim.run(until=3.0)
        assert log == ["first", "chained"]

    def test_code_after_until_cutoff_follows_every_fired_event(self):
        # Every event through `until` fired, those scheduled last too, so
        # code running after the cutoff sorts after all of them.
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        mark = sim.mark()
        sim.run(until=2.0)
        assert not sim.was_pending_at(mark)

    def test_empty_heap_advances_clock_to_until(self):
        sim = Simulation()
        sim.run(until=7.5)
        assert sim.now == 7.5
        assert sim.events_processed == 0

    def test_until_in_the_past_leaves_clock_alone(self):
        sim = Simulation()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        sim.run(until=2.0)  # already beyond the cutoff: a no-op
        assert sim.now == 5.0

    def test_drained_heap_still_advances_to_until(self):
        # Events before the cutoff execute, then the clock jumps to it.
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.run(until=10.0)
        assert log == [1]
        assert sim.now == 10.0

    def test_max_events_hits_before_until(self):
        # max_events wins: the run stops mid-queue and the clock stays at
        # the last executed event, not at `until`.
        sim = Simulation()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        sim.run(until=10.0, max_events=2)
        assert log == [1.0, 2.0]
        assert sim.now == 2.0
        assert len(sim) == 1

    def test_until_hits_before_max_events(self):
        sim = Simulation()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        sim.run(until=2.5, max_events=100)
        assert log == [1.0, 2.0]
        assert sim.now == 2.5

    def test_max_events_counts_per_call_not_lifetime(self):
        sim = Simulation()
        for _ in range(6):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        sim.run(max_events=4)  # a fresh budget drains the remaining two
        assert sim.events_processed == 6
        assert len(sim) == 0

    def test_run_resumes_after_until(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(4.0, lambda: log.append("b"))
        sim.run(until=2.0)
        sim.run(until=3.0)  # no events in (2, 3]: clock still advances
        assert sim.now == 3.0
        sim.run()
        assert log == ["a", "b"]
        assert sim.now == 4.0

    def test_run_is_not_reentrant(self):
        for sim in (Simulation(), SimSanitizer().simulation()):
            sim.schedule(1.0, lambda: sim.run(until=sim.now))
            with pytest.raises(RuntimeError, match="not re-entrant"):
                sim.run()
            sim.schedule(1.0, lambda: None)  # the guard was released
            sim.run()
            assert sim.now == 2.0
