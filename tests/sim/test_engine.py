"""Kernel event-loop semantics."""

import pytest

from repro.sim import Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "low", priority=5)
    sim.schedule(1.0, order.append, "high", priority=-5)
    sim.run()
    assert order == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    hits = []
    ev = sim.schedule(1.0, hits.append, 1)
    ev.cancel()
    sim.run()
    assert hits == []
    assert sim.pending() == 0


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert sim.pending() == 1
    sim.run()
    assert sim.now == 10.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


@pytest.mark.parametrize("timer_wheel", [True, False])
def test_nan_time_rejected_by_schedule_at(timer_wheel):
    """``schedule_at(nan)`` used to be queued: a NaN key compares false
    against everything, so it sat wherever the heap put it — events at
    1.0, NaN, 0.5 fired NaN, 0.5, 1.0 — and its handler ran with ``now``
    set to NaN.  Both entry points now refuse it in ``_enqueue``."""
    sim = Simulator(timer_wheel=timer_wheel)
    order = []
    sim.schedule_at(1.0, order.append, 1.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: order.append(sim.now))
    sim.schedule_at(0.5, order.append, 0.5)
    assert sim.pending() == 2
    sim.run()
    assert order == [0.5, 1.0] and sim.now == 1.0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_run():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, hits.append, 3)
    sim.run()
    assert hits == [1]
    assert sim.now == 2.0
    sim.run()
    assert hits == [1, 3]


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_events_processed_counts():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 7
