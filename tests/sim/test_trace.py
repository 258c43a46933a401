"""Tracer and fraction_below."""

import pytest

from repro.sim.trace import Tracer, fraction_below


def test_tracer_records_and_counts():
    tr = Tracer()
    tr.record(1.0, "evt", {"x": 1})
    tr.record(2.0, "evt", {"x": 2})
    tr.record(3.0, "other")
    assert tr.counters["evt"] == 2
    assert tr.get("evt")[1] == (2.0, {"x": 2})
    assert tr.get("other") == [(3.0, {})]
    assert sorted(tr.records) == ["evt", "other"]


def test_disabled_tracer_counts_but_does_not_store():
    tr = Tracer(enabled=False)
    tr.record(1.0, "evt", {"x": 1})
    assert tr.counters["evt"] == 1
    assert tr.get("evt") == []


def test_fraction_below():
    assert fraction_below([1, 2, 3, 4], 3) == pytest.approx(0.5)
    assert fraction_below([], 3) == 1.0
    assert fraction_below([float("inf")], 1e9) == 0.0
