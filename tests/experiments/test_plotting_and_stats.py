"""ASCII plotting, CSV export and overlay diagnostics."""

import csv
import math
import os

import pytest

from repro.brunet.stats import routable_fraction
from repro.check.invariants import ring_verdict
from repro.experiments.plotting import (
    ascii_plot,
    export_csv,
    export_series_csv,
)
from tests.conftest import make_mini_testbed


class TestAsciiPlot:
    def test_renders_all_series_markers(self):
        out = ascii_plot({"a": ([0, 1, 2], [0, 1, 4]),
                          "b": ([0, 1, 2], [4, 1, 0])}, title="t")
        assert "t" in out
        assert "*" in out and "o" in out
        assert "a" in out and "b" in out

    def test_empty_series(self):
        assert "(no data)" in ascii_plot({"x": ([], [])}, title="empty")

    def test_nan_values_skipped(self):
        out = ascii_plot({"a": ([0, 1], [float("nan"), 2.0])})
        assert out  # renders without raising

    def test_constant_series(self):
        out = ascii_plot({"flat": ([0, 1, 2], [5, 5, 5])})
        assert "*" in out

    def test_axis_labels_present(self):
        out = ascii_plot({"a": ([0, 10], [0, 1])}, xlabel="seconds")
        assert "seconds" in out
        assert "10" in out


class TestHistogramAndCsv:
    def test_export_csv(self, tmp_path):
        path = export_csv(str(tmp_path / "sub" / "out.csv"),
                          ("a", "b"), [(1, 2), (3, 4)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_export_series_csv(self, tmp_path):
        path = export_series_csv(str(tmp_path / "series.csv"),
                                 {"s1": ([0, 1], [5, 6])})
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["s1", "0", "5"]


class TestSurvey:
    @pytest.fixture(scope="class")
    def bed(self):
        return make_mini_testbed(seed=66)

    def test_survey_counts_make_sense(self, bed):
        sim, tb = bed
        nodes = tb.deployment.ring_nodes()
        records = [n.census() for n in nodes]
        assert len(records) == 12 + 33
        assert ring_verdict(records) == []
        assert sum(r["connections"] for r in records) / len(records) > 2
        assert all(r["in_ring"] for r in records)  # NEAR links present
        # six sources to every destination: every sampled pair routable
        sources = nodes[::-(-len(nodes) // 6)]
        assert routable_fraction(
            nodes, ((s, d) for s in sources for d in nodes if s is not d)) == 1.0
