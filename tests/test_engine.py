"""Discrete-event engine tests."""

import pytest

from repro.sim import EventQueue


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(30.0, lambda t: seen.append(("b", t)))
        q.schedule(10.0, lambda t: seen.append(("a", t)))
        q.schedule(20.0, lambda t: seen.append(("c", t)))
        q.run_until(100.0)
        assert [s[0] for s in seen] == ["a", "c", "b"]
        assert [s[1] for s in seen] == [10.0, 20.0, 30.0]

    def test_tie_break_by_insertion_order(self):
        q = EventQueue()
        seen = []
        q.schedule(10.0, lambda t: seen.append("first"))
        q.schedule(10.0, lambda t: seen.append("second"))
        q.run_until(100.0)
        assert seen == ["first", "second"]

    def test_run_until_boundary_inclusive(self):
        q = EventQueue()
        seen = []
        q.schedule(50.0, lambda t: seen.append(t))
        ran = q.run_until(50.0)
        assert ran == 1 and seen == [50.0]

    def test_events_beyond_horizon_deferred(self):
        q = EventQueue()
        seen = []
        q.schedule(60.0, lambda t: seen.append(t))
        q.run_until(50.0)
        assert seen == []
        q.run_until(70.0)
        assert seen == [60.0]

    def test_events_scheduled_during_run(self):
        q = EventQueue()
        seen = []

        def chain(t):
            seen.append(t)
            if t < 30.0:
                q.schedule(t + 10.0, chain)

        q.schedule(10.0, chain)
        q.run_until(100.0)
        assert seen == [10.0, 20.0, 30.0]

    def test_scheduling_in_past_rejected(self):
        q = EventQueue()
        q.schedule(10.0, lambda t: q.schedule(5.0, lambda t2: None))
        with pytest.raises(ValueError):
            q.run_until(100.0)

    def test_clock_advances_to_horizon(self):
        q = EventQueue()
        q.run_until(42.0)
        assert q.now_us == 42.0

    def test_len_counts_pending(self):
        q = EventQueue()
        q.schedule(10.0, lambda t: None)
        q.schedule(20.0, lambda t: None)
        assert len(q) == 2
