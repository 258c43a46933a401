"""Coalesced fairness recomputation and its early returns.

The invariant throughout: a coalesced flush (one water-fill per burst of
mutations) must produce exactly the rates an immediate progressive-filling
pass over all flows would — no mutation may be lost.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.phys.flows import Flow, FlowManager, Resource
from repro.sim import Simulator


@pytest.fixture
def mgr():
    sim = Simulator(seed=7, trace=False)
    return sim, FlowManager(sim)


def _count_solves(fm: FlowManager) -> list[int]:
    """Count the manager's water-fill solves from now on."""
    calls = [0]
    solve = fm._solve

    def counted():
        calls[0] += 1
        solve()

    fm._solve = counted
    return calls


def _full_rates(fm: FlowManager) -> dict[str, float]:
    """Oracle: force a full recomputation and snapshot all rates."""
    fm.recompute()
    return {f.name: f.rate for f in fm.flows}


def test_disjoint_component_rates_untouched(mgr):
    sim, fm = mgr
    ra = Resource("a", 100.0)
    rb = Resource("b", 60.0)
    fa = Flow(fm, "fa", 1e9, [ra])
    fb = Flow(fm, "fb", 1e9, [rb])
    assert fa.rate == pytest.approx(100.0)
    assert fb.rate == pytest.approx(60.0)

    # mutate only component b from inside an event
    sim.schedule(1.0, lambda: Flow(fm, "fb2", 1e9, [rb]))
    sim.run(until=2.0)
    assert fb.rate == pytest.approx(30.0)
    assert fa.rate == pytest.approx(100.0)


def test_set_capacity_on_idle_resource_skips_recompute(mgr):
    sim, fm = mgr
    idle = Resource("idle", 10.0)
    busy = Resource("busy", 100.0)
    f = Flow(fm, "f", 1e9, [busy])
    solves = _count_solves(fm)
    idle.set_capacity(500.0, fm)
    assert idle.capacity == 500.0
    assert solves == [0]
    # a flow admitted over it later still sees the new capacity
    g = Flow(fm, "g", 1e9, [idle])
    assert g.rate == pytest.approx(500.0)
    assert f.rate == pytest.approx(100.0)


def test_set_capacity_with_flows_recomputes(mgr):
    sim, fm = mgr
    r = Resource("r", 100.0)
    f = Flow(fm, "f", 1e9, [r])
    r.set_capacity(40.0, fm)
    assert f.rate == pytest.approx(40.0)


def test_mutations_in_one_event_coalesce_into_one_flush(mgr):
    sim, fm = mgr
    r = Resource("r", 120.0)
    flows = []

    def burst():
        for i in range(8):
            flows.append(Flow(fm, f"f{i}", 1e9, [r]))

    solves = _count_solves(fm)
    sim.schedule(1.0, burst)
    sim.run(until=1.5)
    # one flush for the whole burst, not one per admission
    assert solves == [1]
    for f in flows:
        assert f.rate == pytest.approx(120.0 / 8)


def test_later_events_observe_fresh_rates(mgr):
    """The coalesced flush runs before any ordinary event at the same
    timestamp, so same-time observers never see stale rates."""
    sim, fm = mgr
    r = Resource("r", 100.0)
    f = Flow(fm, "f", 1e9, [r])
    seen = []
    sim.schedule(1.0, lambda: Flow(fm, "g", 1e9, [r]))
    sim.schedule(1.0, lambda: seen.append(f.rate))  # same time, later seq
    sim.run(until=2.0)
    assert seen == [pytest.approx(50.0)]


def test_completion_rebalances_only_its_component(mgr):
    sim, fm = mgr
    ra = Resource("a", 100.0)
    rb = Resource("b", 80.0)
    short = Flow(fm, "short", 100.0, [ra])   # completes at t=2
    long_a = Flow(fm, "long_a", 1e9, [ra])
    long_b = Flow(fm, "long_b", 1e9, [rb])
    sim.run(until=10.0)
    assert short.completed
    assert long_a.rate == pytest.approx(100.0)  # inherited released share
    assert long_b.rate == pytest.approx(80.0)


def test_incremental_matches_full_recompute_after_repath(mgr):
    sim, fm = mgr
    r1, r2, r3 = (Resource(f"r{i}", 90.0 * i) for i in (1, 2, 3))
    f1 = Flow(fm, "f1", 1e9, [r1, r2])
    f2 = Flow(fm, "f2", 1e9, [r2, r3])
    f3 = Flow(fm, "f3", 1e9, [r3])
    sim.schedule(1.0, f1.set_path, [r3])
    sim.schedule(2.0, f2.pause)
    sim.schedule(3.0, f2.resume)
    sim.run(until=4.0)
    incremental = {f.name: f.rate for f in fm.flows}
    assert incremental == _full_rates(fm)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.sampled_from(["add", "cancel", "pause",
                                           "resume", "capacity",
                                           "repath"])),
                min_size=1, max_size=25))
def test_incremental_equals_full_under_random_churn(ops):
    sim = Simulator(seed=11, trace=False)
    fm = FlowManager(sim)
    resources = [Resource(f"r{i}", 50.0 + 25.0 * i) for i in range(6)]
    flows: list[Flow] = []

    def apply(op, a, b):
        if op == "add":
            path = [resources[a]] + ([resources[b]] if b != a else [])
            flows.append(Flow(fm, f"f{len(flows)}", 1e9, path))
        elif op == "cancel" and flows:
            flows[a % len(flows)].cancel()
        elif op == "pause" and flows:
            flows[a % len(flows)].pause()
        elif op == "resume" and flows:
            flows[a % len(flows)].resume()
        elif op == "capacity":
            resources[a].set_capacity(30.0 + 20.0 * b, fm)
        elif op == "repath" and flows:
            path = [resources[b]] + ([resources[a]] if a != b else [])
            flows[a % len(flows)].set_path(path)

    for i, (a, b, op) in enumerate(ops):
        sim.schedule(float(i) + 1.0, apply, op, a, b)
    sim.run(until=len(ops) + 2.0)
    incremental = {f.name: f.rate for f in fm.flows}
    fm.recompute()
    full = {f.name: f.rate for f in fm.flows}
    assert set(incremental) == set(full)
    for name in full:
        assert incremental[name] == pytest.approx(full[name], abs=1e-6), name


def test_mutating_a_cancelled_flow_is_inert(mgr):
    """Hypothesis-found: set_path on a cancelled flow re-registered it on
    the resources, letting a zombie steal live flows' share."""
    sim, fm = mgr
    r = Resource("r", 50.0)
    f0 = Flow(fm, "f0", 1e9, [r])
    f1 = Flow(fm, "f1", 1e9, [r])
    f0.cancel()
    assert f1.rate == pytest.approx(50.0)
    f0.set_path([r])
    f0.pause()
    f0.resume()
    assert r.flows == {f1}
    assert not f0.paused
    assert f1.rate == pytest.approx(50.0)
    assert {f.name: f.rate for f in fm.flows} == _full_rates(fm)
