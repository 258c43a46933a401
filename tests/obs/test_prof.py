"""Kernel self-profiler: attribution, sketch, health, read-onlyness."""

import json
import os

import pytest

from repro.obs.prof import (
    CATEGORY_PREFIXES,
    KernelProfiler,
    SpaceSavingSketch,
    categorize,
)
from repro.sim.engine import Simulator
from tests.conftest import calls_by_name


# ---------------------------------------------------------------------------
# categorization
# ---------------------------------------------------------------------------

def test_categorize_longest_prefix_wins():
    assert categorize("repro.brunet.linking") == "linking"
    assert categorize("repro.brunet.linking.sub") == "linking"
    assert categorize("repro.brunet.node") == "routing"
    assert categorize("repro.phys.nat") == "nat"
    assert categorize("repro.phys.network") == "phys"
    assert categorize("repro.wire.codec") == "codec"
    assert categorize("repro.sim.engine") == "kernel"
    assert categorize("some.other.module") == "other"
    assert categorize("") == "other"


def test_category_prefixes_cover_every_top_level_repro_package():
    # every prefix maps to a short lowercase tag
    assert all(cat.islower() for cat in CATEGORY_PREFIXES.values())


# ---------------------------------------------------------------------------
# Space-Saving sketch
# ---------------------------------------------------------------------------

def test_sketch_exact_below_capacity():
    sk = SpaceSavingSketch(k=4)
    for key, w in [("a", 5.0), ("b", 3.0), ("a", 1.0), ("c", 2.0)]:
        sk.add(key, w)
    assert sk.top() == [("a", 6.0), ("b", 3.0), ("c", 2.0)]
    assert sk.errors == {"a": 0.0, "b": 0.0, "c": 0.0}


def test_sketch_eviction_inherits_weight_as_error():
    sk = SpaceSavingSketch(k=2)
    sk.add("a", 10.0)
    sk.add("b", 1.0)
    sk.add("c", 1.0)  # evicts b (min weight 1.0)
    assert set(sk.weights) == {"a", "c"}
    assert sk.weights["c"] == 2.0  # inherited floor + own weight
    assert sk.errors["c"] == 1.0
    # heavy hitter guarantee: "a" (true weight > total/k) is present
    assert sk.top(1)[0][0] == "a"


def test_sketch_validation():
    with pytest.raises(ValueError):
        SpaceSavingSketch(k=0)


# ---------------------------------------------------------------------------
# profiler accounting on a live kernel
# ---------------------------------------------------------------------------

class _Ticker:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.fired = 0

    def tick(self):
        self.fired += 1


def test_account_attributes_handlers_and_nodes():
    sim = Simulator(seed=0)
    # stride=1: wall-time every event, so attribution is exact
    prof = sim.obs.enable_profiler(sample_every=4, stride=1)
    assert sim.profiler is prof
    a, b = _Ticker(sim, "nodeA"), _Ticker(sim, "nodeB")
    for i in range(6):
        sim.schedule(float(i), a.tick)
    sim.schedule(0.5, b.tick)
    sim.run()
    assert prof.events == 7
    assert a.fired == 6 and b.fired == 1
    # bound methods of the same class collapse onto one handler row
    # (cells are [calls, total_s, max_s, max_at, name, category])
    stats = [c for c in prof.handlers.values() if "tick" in c[4]]
    assert len(stats) == 1 and stats[0][0] == 7
    # node attribution saw both owners
    assert set(prof.nodes.weights) == {"nodeA", "nodeB"}
    assert prof.nodes.counts["nodeA"] == 6
    # health was sampled (7 events, sample_every=4 → one sample)
    assert prof.health_samples == 1
    summary = prof.summary()
    assert summary["events"] == 7
    assert summary["health"]["max_handler"].endswith("_Ticker.tick")
    assert summary["hot_nodes"][0]["node"] in ("nodeA", "nodeB")


def test_profiler_off_by_default():
    sim = Simulator(seed=0)
    assert sim.profiler is None
    sim.schedule(1.0, lambda: None)
    sim.run()  # no profiler → plain path


def test_export_folded_format(tmp_path):
    sim = Simulator(seed=0)
    prof = sim.obs.enable_profiler(stride=1)
    t = _Ticker(sim, "n0")
    sim.schedule(1.0, t.tick)
    sim.run()
    path = prof.export_folded(str(tmp_path / "profile.folded"))
    lines = open(path).read().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        parts = stack.split(";")
        assert parts[0] == "wow" and len(parts) == 3
        assert int(weight) >= 1  # zero-weight frames are clamped to 1µs
    path = prof.export_json(str(tmp_path / "profile.json"))
    data = json.load(open(path))
    assert data["events"] == 1 and "health" in data


def test_format_summary_renders():
    sim = Simulator(seed=0)
    prof = sim.obs.enable_profiler()
    t = _Ticker(sim, "n0")
    sim.schedule(1.0, t.tick)
    sim.run()
    text = prof.format_summary()
    assert "kernel profile" in text and "health:" in text


def test_sample_every_validation():
    with pytest.raises(ValueError):
        KernelProfiler(sample_every=0)
    with pytest.raises(ValueError):
        KernelProfiler(stride=0)


def test_timing_stride_samples_and_scales():
    sim = Simulator(seed=0)
    prof = sim.obs.enable_profiler(stride=4)
    t = _Ticker(sim, "n0")
    for i in range(8):
        sim.schedule(float(i), t.tick)
    sim.run()
    # the 1st and 5th events were sampled; calls/time are scaled by the
    # stride into total estimates
    cell = next(iter(prof.handlers.values()))
    assert cell[0] == 2  # raw samples
    assert cell[1] > 0.0
    assert prof.events == 8
    s = prof.summary()
    assert s["events"] == 8
    assert s["handlers"][0]["calls"] == 8


def _churn_mix_calls(profile: bool):
    """Events and Python calls of 300 simulated s on a 10-node overlay."""
    from repro.brunet.config import BrunetConfig
    from repro.experiments.churn_recovery import _build_overlay

    sim = Simulator(seed=0, trace=False)
    if profile:
        sim.obs.enable_profiler()
    _build_overlay(sim, 10, BrunetConfig())
    ev0 = sim.events_processed
    calls = calls_by_name(sim.run, sim.now + 300.0)
    return sim.events_processed - ev0, calls


def test_profiler_costs_one_account_call_per_stride_events():
    """Counted, not timed: at the default stride of 4 the profiler adds one
    ``account`` call per four events and otherwise only first-sighting
    bookkeeping, so timing every event or a helper call per sample fails
    on any host.  Measured: 1 829 events, +457 ``account``, +10
    ``_node_slow``, +2 ``add``."""
    events_off, off = _churn_mix_calls(profile=False)
    events_on, on = _churn_mix_calls(profile=True)
    assert events_on == events_off > 1000
    gained = on - off
    assert abs(gained.pop("account") - events_on // 4) <= 1
    assert all(n <= 16 for n in gained.values()), gained
    assert sum(gained.values()) <= 32, gained


# ---------------------------------------------------------------------------
# read-onlyness: profiling on/off → byte-identical deterministic bundle
# ---------------------------------------------------------------------------

DETERMINISTIC_FILES = ("metrics.jsonl", "metrics.csv", "metrics.prom",
                       "spans.jsonl", "events.jsonl", "manifest.json")


def test_profiling_is_read_only_byte_identical_bundle(tmp_path):
    from repro.experiments import churn_recovery

    kw = dict(seed=3, n_nodes=8, kill_fraction=0.25,
              settle=150.0, horizon=200.0)
    off = str(tmp_path / "off")
    on = str(tmp_path / "on")
    r_off = churn_recovery.run(obs_dir=off, profile_kernel=False, **kw)
    r_on = churn_recovery.run(obs_dir=on, profile_kernel=True, **kw)
    assert r_off.profile is None
    assert r_on.profile is not None and r_on.profile["events"] > 0
    # same trajectory...
    assert r_off.series == r_on.series
    # ...and the deterministic half of the bundle is byte-identical
    for name in DETERMINISTIC_FILES:
        with open(os.path.join(off, name), "rb") as f_off, \
                open(os.path.join(on, name), "rb") as f_on:
            assert f_off.read() == f_on.read(), name
    # the wall-clock profile exists only in the profiled run and stays
    # out of the manifest
    assert os.path.exists(os.path.join(on, "profile.json"))
    assert os.path.exists(os.path.join(on, "profile.folded"))
    assert not os.path.exists(os.path.join(off, "profile.json"))
    manifest = json.load(open(os.path.join(on, "manifest.json")))
    assert "profile" not in json.dumps(manifest["files"])


def test_compaction_counter_increments():
    # cancellations build tombstones until the lazy sweep fires
    sim = Simulator(seed=0)
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(256)]
    for h in handles:
        h.cancel()
    assert sim.compactions >= 1
    assert sim.pending() == 0
