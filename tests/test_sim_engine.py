"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.scenarios.executors import _cell_alarm
from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_ties_broken_by_priority_then_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.schedule(1.0, lambda: order.append("prio"), priority=-1)
        sim.run()
        assert order == ["prio", "first", "second"]

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.5]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_in(-0.1, lambda: None)

    def test_non_finite_time_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)

    def test_callback_args_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == [1, 5]

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [(1, None)] or fired[0] is not None  # stop() ran
        assert len(fired) == 1

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4



class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []





class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.001, max_value=1000.0), min_size=1, max_size=50))
    def test_any_schedule_order_executes_sorted(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.schedule(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)

    def test_same_time_events_fifo_within_priority(self):
        sim = Simulator()
        seen = []
        for i in range(100):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(100))


def _ticking_simulator():
    """A simulator whose one event re-arms itself every simulated second."""
    sim = Simulator()

    def tick():
        sim.schedule_in(1.0, tick)

    sim.schedule_in(1.0, tick)
    return sim


@pytest.mark.parametrize(
    "bounds", [{"until": math.nan}, {"max_events": math.nan}], ids=str
)
def test_a_nan_bound_is_rejected_instead_of_running_forever(bounds):
    sim = _ticking_simulator()
    # The alarm turns the hang this used to be into a CellTimeout failure.
    with _cell_alarm(5.0), pytest.raises(SimulationError, match="nan"):
        sim.run(**bounds)
    # Rejected before the loop: nothing ran, and the simulator is usable.
    assert sim.events_processed == 0
    assert sim.run(until=2.5) == 2.5
    assert sim.events_processed == 2


def test_the_other_run_bounds_keep_their_meaning():
    sim = _ticking_simulator()
    assert sim.run(max_events=3) == 3.0
    assert sim.run(until=1.0) == 3.0  # a past horizon runs nothing
    assert sim.run(until=5.0, max_events=10**9) == 5.0
    assert sim.events_processed == 5
    draining = Simulator()
    draining.schedule_in(1.0, lambda: None)
    assert draining.run(until=math.inf) == math.inf  # the heap empties
    assert draining.events_processed == 1
