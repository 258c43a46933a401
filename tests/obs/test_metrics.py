"""MetricsRegistry: instruments, labels, histograms, export."""

import math

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_rows,
)


def test_counter_child_identity_and_inc():
    m = MetricsRegistry()
    c1 = m.counter("brunet.route.sent", node="a")
    c2 = m.counter("brunet.route.sent", node="a")
    c3 = m.counter("brunet.route.sent", node="b")
    assert c1 is c2
    assert c1 is not c3
    c1.inc()
    c1.inc(4)
    assert c1.value == 5
    assert c3.value == 0


def test_label_order_is_irrelevant():
    m = MetricsRegistry()
    a = m.counter("x", node="n", reason="r")
    b = m.counter("x", reason="r", node="n")
    assert a is b


def test_gauge_set_inc_dec():
    m = MetricsRegistry()
    g = m.gauge("sim.now")
    g.set(10)
    g.inc(2)
    g.dec()
    assert g.value == 11


def test_gauge_fn_sampled_at_snapshot():
    m = MetricsRegistry()
    state = {"v": 1}
    m.gauge_fn("nat.mappings_live", lambda: state["v"], nat="n1")
    state["v"] = 7
    rows = m.snapshot()
    assert rows == [{"name": "nat.mappings_live", "type": "gauge",
                     "labels": {"nat": "n1"}, "value": 7}]


def test_collector_runs_before_export():
    m = MetricsRegistry()
    calls = []

    def fill(reg):
        calls.append(1)
        reg.gauge("phys.delivered").set(42)

    m.add_collector(fill)
    rows = m.snapshot()
    assert calls == [1]
    assert merge_rows(rows, "phys.delivered") == 42


def test_histogram_log2_buckets_and_quantile():
    h = Histogram("h", ())
    for v in [0.4, 0.5, 3.0, 3.5, 1000.0]:
        h.observe(v)
    h.observe(0.0)
    h.observe(-2.0)
    assert h.count == 7
    assert h.total == sum([0.4, 0.5, 3.0, 3.5, 1000.0, 0.0, -2.0])
    row = h.row()
    # buckets are (2^(e-1), 2^e]-style frexp exponents: 0.4 → le=0.5,
    # 0.5 → le=1, 3.0/3.5 → le=4, 1000 → le=1024; non-positives → le=0
    assert row["buckets"]["le=0"] == 2
    assert row["buckets"]["le=0.5"] == 1
    assert row["buckets"]["le=1"] == 1
    assert row["buckets"]["le=4"] == 2
    assert row["buckets"]["le=1024"] == 1
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 1024.0


def test_histogram_empty_quantile_is_nan():
    h = Histogram("h", ())
    assert math.isnan(h.quantile(0.5))


def test_find_does_not_create():
    m = MetricsRegistry()
    assert m.find("nope", node="a") is None
    m.counter("yes", node="a").inc()
    assert m.find("yes", node="a").value == 1
    assert m.find("yes", node="b") is None


def test_export_deterministic_and_sorted(tmp_path):
    m = MetricsRegistry()
    m.counter("b.second", node="z").inc(2)
    m.counter("a.first", node="y").inc()
    m.histogram("c.hist").observe(3.0)
    p1 = m.export_jsonl(str(tmp_path / "m1.jsonl"))
    p2 = m.export_jsonl(str(tmp_path / "m2.jsonl"))
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()
    names = [line.split(b'"name": "')[1].split(b'"')[0]
             for line in b1.splitlines()]
    assert names == sorted(names)
    csv = open(m.export_csv(str(tmp_path / "m.csv"))).read().splitlines()
    assert csv[0] == "name,labels,type,value,count,sum"
    assert csv[1].startswith("a.first,node=y,counter,1")
    assert any(line.startswith("c.hist,,histogram,,1,3.0") for line in csv)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def test_export_prom_counters_and_gauges(tmp_path):
    m = MetricsRegistry()
    m.counter("brunet.route.sent", node="a").inc(3)
    m.counter("brunet.route.sent", node="b").inc(2)
    m.gauge("sim.now").set(12.5)
    text = open(m.export_prom(str(tmp_path / "m.prom"))).read()
    lines = text.splitlines()
    # dots mangle to underscores; one TYPE line per family
    assert lines.count("# TYPE brunet_route_sent counter") == 1
    assert 'brunet_route_sent{node="a"} 3' in lines
    assert 'brunet_route_sent{node="b"} 2' in lines
    assert "# TYPE sim_now gauge" in lines
    assert "sim_now 12.5" in lines
    # integer-valued floats render without a trailing .0
    assert "brunet_route_sent{node=\"a\"} 3.0" not in text


def test_export_prom_histogram_cumulative(tmp_path):
    m = MetricsRegistry()
    h = m.histogram("brunet.route.hops", node="a")
    for v in (0.5, 3.0, 3.5, 1000.0):
        h.observe(v)
    lines = open(m.export_prom(str(tmp_path / "m.prom"))).read().splitlines()
    assert "# TYPE brunet_route_hops histogram" in lines
    bucket = [line for line in lines if "_bucket" in line]
    # cumulative counts: le=1 → 1, le=4 → 3, le=1024 → 4, +Inf → 4
    assert 'brunet_route_hops_bucket{le="1",node="a"} 1' in bucket
    assert 'brunet_route_hops_bucket{le="4",node="a"} 3' in bucket
    assert 'brunet_route_hops_bucket{le="1024",node="a"} 4' in bucket
    assert 'brunet_route_hops_bucket{le="+Inf",node="a"} 4' in bucket
    assert 'brunet_route_hops_sum{node="a"} 1007' in lines
    assert 'brunet_route_hops_count{node="a"} 4' in lines


def test_export_prom_deterministic(tmp_path):
    m = MetricsRegistry()
    m.counter("z.last").inc()
    m.counter("a.first", node="n").inc(2)
    m.histogram("h").observe(1.0)
    p1 = open(m.export_prom(str(tmp_path / "p1.prom")), "rb").read()
    p2 = open(m.export_prom(str(tmp_path / "p2.prom")), "rb").read()
    assert p1 == p2


def test_export_prom_empty_registry(tmp_path):
    m = MetricsRegistry()
    assert open(m.export_prom(str(tmp_path / "e.prom"))).read() == ""
