"""SweepWheel: batched periodic timers with generation-tag cancellation."""

from __future__ import annotations

import pytest

from repro.brunet.config import BrunetConfig
from repro.check import invariants
from repro.phys.network import Internet
from repro.sim.engine import Simulator, SimulationError, SweepWheel, sweep_wheel
from tests.conftest import build_overlay


@pytest.fixture
def sim():
    return Simulator(seed=0)


def test_entries_fire_in_key_order_within_a_bucket(sim):
    wheel = SweepWheel(sim, granularity=1.0)
    fired = []
    # register out of key order; all land in the same bucket
    for key in (30, 10, 20):
        wheel.schedule((key,), 0.5, lambda k=key: fired.append(k))
    sim.run(until=2.0)
    assert fired == [10, 20, 30]
    assert wheel.sweeps == 1


def test_quantization_never_fires_early(sim):
    wheel = SweepWheel(sim, granularity=5.0)
    at = []
    wheel.schedule("a", 7.0, lambda: at.append(sim.now))
    sim.run(until=30.0)
    assert at == [10.0]  # ceil(7/5)*5, within [delay, delay+granularity)


def test_generation_cancel_is_tombstone_free(sim):
    wheel = SweepWheel(sim, granularity=1.0)
    fired = []
    wheel.schedule("a", 0.5, lambda: fired.append("a"))
    wheel.schedule("b", 0.5, lambda: fired.append("b"))
    wheel.cancel("a")
    assert len(wheel._buckets[1]) == 2  # entry not scanned out of the list
    sim.run(until=2.0)
    assert fired == ["b"]
    assert wheel.skipped == 1


def test_reschedule_supersedes_previous_registration(sim):
    wheel = SweepWheel(sim, granularity=1.0)
    fired = []
    wheel.schedule("a", 0.5, lambda: fired.append("first"))
    wheel.schedule("a", 2.5, lambda: fired.append("second"))
    sim.run(until=5.0)
    assert fired == ["second"]


def test_cancel_then_reschedule_does_not_resurrect_stale_entry(sim):
    wheel = SweepWheel(sim, granularity=1.0)
    fired = []
    wheel.schedule("a", 0.5, lambda: fired.append("stale"))
    wheel.cancel("a")
    wheel.schedule("a", 0.5, lambda: fired.append("live"))
    sim.run(until=2.0)
    assert fired == ["live"]


def test_periodic_reregistration(sim):
    wheel = SweepWheel(sim, granularity=1.0)
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 4:
            wheel.schedule("n", 2.0, tick)

    wheel.schedule("n", 2.0, tick)
    sim.run(until=20.0)
    assert ticks == [2.0, 4.0, 6.0, 8.0]


def test_schedule_bucket_registers_by_index_not_by_delay(sim):
    """A registrant that tracks its own due bucket must land in it.  Going
    back through ``schedule(due - now)`` recomputes the bucket from
    ``now + (due - now)``, which can round past the edge."""
    wheel = SweepWheel(sim, granularity=0.3)
    sim.run(until=0.7)
    bucket = next(b for b in range(3, 10_000)
                  if wheel.bucket_at(sim.now + (b * 0.3 - sim.now)) != b)
    at = []
    wheel.schedule_bucket("abs", bucket, lambda: at.append(sim.now))
    wheel.schedule("rel", bucket * 0.3 - sim.now, lambda: at.append(sim.now))
    assert wheel.pending("abs") and wheel.pending("rel")
    sim.run(until=(bucket + 2) * 0.3)
    assert at == [bucket * 0.3, (bucket + 1) * 0.3]
    # same key, same generation rules as schedule()
    wheel.schedule_bucket("abs", bucket + 5, lambda: at.append("stale"))
    wheel.schedule_bucket("abs", bucket + 6, lambda: at.append("live"))
    sim.run(until=(bucket + 8) * 0.3)
    assert at[2:] == ["live"]
    with pytest.raises(SimulationError):
        wheel.schedule_bucket("abs", 1, lambda: None)     # in the past


def test_pending_tracks_the_live_entry_through_its_whole_life(sim):
    wheel = SweepWheel(sim, granularity=1.0)
    assert not wheel.pending("k")
    again = []

    def fire():
        # its own entry is spent by the time it runs ...
        again.append(wheel.pending("k"))
        if len(again) == 1:
            wheel.schedule("k", 0.0, fire)    # ... same instant, new bucket
            again.append(wheel.pending("k"))

    wheel.schedule("k", 2.0, fire)
    assert wheel.pending("k")
    wheel.cancel("k")
    assert not wheel.pending("k")
    wheel.schedule("k", 2.0, fire)
    wheel.schedule("other", 2.0, lambda: None)
    sim.run(until=1.5)
    assert wheel.pending("k")
    sim.run(until=5.0)
    assert again == [False, True, False]
    assert not wheel.pending("k") and not wheel.pending("other")


def test_pending_is_constant_time_in_the_number_of_keys(sim):
    """``pending`` used to scan every entry of every bucket, so an auditor
    asking it once per overlord was quadratic in the overlay size.  With
    10 000 live keys, 10 000 queries must cost about what they cost with
    ten — not 1 000 times more."""
    from time import perf_counter

    def cost(keys: int) -> float:
        wheel = SweepWheel(sim, granularity=1.0)
        for k in range(keys):
            wheel.schedule(k, 1.0 + (k % 97), lambda: None)
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            hits = sum(wheel.pending(k % keys) for k in range(10_000))
            best = min(best, perf_counter() - t0)
        assert hits == 10_000 and not wheel.pending(-1)
        return best

    small, large = cost(10), cost(10_000)
    assert large < 20 * small + 0.01, (small, large)
    assert large < 0.25        # the scan took 1.6 s here


def test_rejects_negative_delay_and_bad_granularity(sim):
    with pytest.raises(SimulationError):
        SweepWheel(sim, granularity=0.0)
    wheel = SweepWheel(sim, granularity=1.0)
    with pytest.raises(SimulationError):
        wheel.schedule("a", -1.0, lambda: None)


def test_shared_wheel_is_per_simulator(sim):
    other = Simulator(seed=1)
    assert sweep_wheel(sim) is sweep_wheel(sim)
    assert sweep_wheel(sim) is not sweep_wheel(other)


def test_batched_overlay_forms_consistent_ring():
    """batch_timers routes keep-alive + overlord ticks through the shared
    wheel; the overlay must still form a consistent ring and audit clean
    (timing is quantized, decisions are not)."""
    sim = Simulator(seed=3)
    internet = Internet(sim)
    config = BrunetConfig(batch_timers=True)
    nodes, _ = build_overlay(sim, internet, 10, config=config)
    sim.run(until=sim.now + 120.0)
    wheel = sweep_wheel(sim)
    assert wheel.sweeps > 0
    live = [n for n in nodes if n.active]
    assert not invariants.check_ring(live, sim.now)
    assert not invariants.check_routing(live, sim.now)
    # a stopped node's wheel entries go stale instead of firing
    nodes[5].stop()
    before = wheel.skipped
    sim.run(until=sim.now + 60.0)
    assert wheel.skipped > before
