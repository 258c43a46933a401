"""Streaming aggregation: sector rollups and aggregate mode."""

import pytest

from repro.brunet.address import ADDRESS_BITS
from repro.obs.metrics import MetricsRegistry, SectorRollup
from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# sector arithmetic
# ---------------------------------------------------------------------------

def test_sector_of_boundaries():
    m = MetricsRegistry()
    roll = SectorRollup(m, lambda: [], sectors=4, space_bits=8)
    # 8-bit ring, 4 arcs of 64 addresses each
    assert roll.sector_of(0) == 0
    assert roll.sector_of(63) == 0
    assert roll.sector_of(64) == 1
    assert roll.sector_of(191) == 2
    assert roll.sector_of(192) == 3
    assert roll.sector_of(255) == 3


def test_sector_labels_zero_padded():
    m = MetricsRegistry()
    roll = SectorRollup(m, lambda: [], sectors=16)
    assert roll.label(0) == "00"
    assert roll.label(15) == "15"
    wide = SectorRollup(m, lambda: [], sectors=128)
    assert wide.label(5) == "005"


def test_sectors_validation():
    with pytest.raises(ValueError):
        SectorRollup(MetricsRegistry(), lambda: [], sectors=0)


# ---------------------------------------------------------------------------
# rollup totals vs per-node sums on a real overlay
# ---------------------------------------------------------------------------

def _small_overlay():
    from repro.brunet.config import BrunetConfig
    from repro.experiments.churn_recovery import _build_overlay

    sim = Simulator(seed=2, trace=False)
    _internet, nodes, _routers = _build_overlay(sim, 8, BrunetConfig())
    sim.run(until=sim.now + 120.0)
    return sim, nodes


def test_rollup_matches_per_node_sums():
    sim, nodes = _small_overlay()
    live = [n for n in nodes if n.active]
    roll = sim.obs.enable_rollup(lambda: live, sectors=4)
    rows = roll.refresh()
    assert len(rows) == 4
    for field, expect in [
        ("nodes", len(live)),
        ("conns", sum(len(n.table) for n in live)),
        ("route_sent", sum(n.stats.get("sent", 0) for n in live)),
        ("route_fwd", sum(n.stats.get("forwarded", 0) for n in live)),
        ("route_dlvd", sum(n.stats.get("delivered", 0) for n in live)),
        ("route_drops", sum(n.stats.get("ttl_drop", 0)
                            + n.stats.get("undeliverable", 0)
                            for n in live)),
    ]:
        assert sum(r[field] for r in rows) == expect, field
    assert sum(r["nodes"] for r in rows) > 0
    # every node landed in a valid arc of the 160-bit ring
    assert all(0 <= roll.sector_of(n.addr) < 4 for n in live)
    assert roll.space_bits == ADDRESS_BITS


def test_rollup_collector_publishes_o_sectors_series():
    sim, nodes = _small_overlay()
    sim.obs.enable_rollup(lambda: [n for n in nodes if n.active],
                          sectors=4)
    rows = sim.obs.metrics.snapshot()
    sector_rows = [r for r in rows if r["name"].startswith("ring.sector.")]
    # 6 fields × 4 sectors, regardless of node count
    assert len(sector_rows) == 24
    by_name = {}
    for r in sector_rows:
        by_name.setdefault(r["name"], []).append(r)
    assert all(len(v) == 4 for v in by_name.values())
    live = [n for n in nodes if n.active]
    total = sum(r["value"] for r in by_name["ring.sector.conns"])
    assert total == sum(len(n.table) for n in live)


# ---------------------------------------------------------------------------
# aggregate (node_series=False) mode
# ---------------------------------------------------------------------------

def test_node_series_off_collapses_children():
    m = MetricsRegistry(node_series=False)
    a = m.counter("brunet.route.sent", node="a")
    b = m.counter("brunet.route.sent", node="b")
    assert a is b  # one aggregate child
    a.inc(3)
    b.inc(4)
    rows = m.snapshot()
    assert len(rows) == 1
    assert rows[0]["value"] == 7
    assert "node" not in rows[0]["labels"]


def test_node_series_off_gauge_fn_sums():
    m = MetricsRegistry(node_series=False)
    m.gauge_fn("brunet.connections", lambda: 2, node="a")
    m.gauge_fn("brunet.connections", lambda: 5, node="b")
    rows = m.snapshot()
    assert len(rows) == 1
    assert rows[0]["value"] == 7


def test_node_series_on_keeps_per_node_children():
    m = MetricsRegistry()
    m.gauge_fn("brunet.connections", lambda: 2, node="a")
    m.gauge_fn("brunet.connections", lambda: 5, node="b")
    rows = m.snapshot()
    assert [r["value"] for r in rows] == [2, 5]

