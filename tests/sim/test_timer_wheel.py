"""Event queue: one binary heap, lazy tombstones, an O(1) live counter.

The reference is the total order itself: whatever is scheduled, cancelled
or spawned from handlers, the events that fire are exactly the ones never
cancelled, in ``sorted()`` order of their ``(time, priority, seq)`` keys.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


def _run_workload(spec):
    """spec: list of (delay, priority, cancel) — scheduled up front; some
    handlers also schedule children, some of which they cancel at once.
    Returns (fired keys in firing order, every handle ever issued)."""
    sim = Simulator(seed=0, trace=False)
    handles = []
    fired = []

    def fire(index):
        ev = handles[index]
        assert sim.now == ev.time
        fired.append((ev.time, ev.priority, ev.seq))
        # periodic-timer shape: a far-future child that may be cancelled
        if index % 3 == 0:
            handles.append(sim.schedule(7.5, fire, len(handles),
                                        priority=index % 3 - 1))
            if index % 6 == 0:
                handles[-1].cancel()

    for i, (delay, priority, _cancel) in enumerate(spec):
        handles.append(sim.schedule(delay, fire, i, priority=priority))
    for ev, (_delay, _priority, cancel) in zip(handles, spec):
        if cancel:
            ev.cancel()
    sim.run(until=100.0)
    sim.run()
    return fired, handles


#: delays on a 0.25 s grid, so same-instant ties (broken by priority,
#: then seq) are common; children land 7.5 s out, on the same grid
_delay = st.integers(0, 160).map(lambda q: q * 0.25)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_delay, st.integers(-2, 2), st.booleans()),
                min_size=1, max_size=50))
def test_firing_order_is_sorted_surviving_keys(spec):
    fired, handles = _run_workload(spec)
    assert fired == sorted((ev.time, ev.priority, ev.seq)
                           for ev in handles if not ev.cancelled)
    assert all(ev.fired != ev.cancelled for ev in handles)


def test_same_instant_events_fire_by_priority_then_fifo():
    """Events at one instant fire by priority, then in scheduling order,
    including one scheduled later from a handler."""
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "a")
    sim.schedule(5.0, order.append, "b")                # same time, later seq
    sim.schedule(5.0, order.append, "hi", priority=-1)
    sim.schedule(0.2, lambda: sim.schedule(4.8, order.append, "c"))
    sim.run()
    assert order == ["hi", "a", "b", "c"]


def test_pending_counter_matches_brute_force():
    sim = Simulator(trace=False)
    events = []
    for i in range(500):
        events.append(sim.schedule(float(i % 50) + (i % 7) * 10.0,
                                   lambda: None))
    for ev in events[::3]:
        ev.cancel()
    for ev in events[::3]:
        ev.cancel()  # idempotent: no double decrement
    assert sim.pending() == sum(1 for _ in sim.iter_pending())
    assert sim.pending() == len(events) - len(events[::3])
    sim.run(until=25.0)
    assert sim.pending() == sum(1 for _ in sim.iter_pending())
    sim.run()
    assert sim.pending() == 0


def test_lazy_compaction_keeps_heap_small():
    """Cancelling most of a large heap triggers a rebuild that sheds the
    tombstones without losing or reordering the survivors."""
    sim = Simulator(trace=False)
    keep, cancelled = [], []
    for i in range(2000):
        ev = sim.schedule(float(i) * 0.01, (keep if i % 10 == 0
                                            else cancelled).append, i)
        if i % 10 != 0:
            ev.cancel()
    assert len(sim._queue) < 2000  # compaction ran
    sim.run()
    assert cancelled == []
    assert keep == list(range(0, 2000, 10))


def test_cancelled_far_event_never_fires():
    """An event cancelled by an earlier one stays in the heap as a
    tombstone and is skipped when it reaches the head."""
    sim = Simulator(trace=False)
    hits = []
    far = sim.schedule(50.0, hits.append, "far")
    sim.schedule(49.0, far.cancel)
    sim.schedule(51.0, hits.append, "after")
    sim.run()
    assert hits == ["after"]
    assert sim.pending() == 0
