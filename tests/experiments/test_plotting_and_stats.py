"""ASCII plotting, CSV export and overlay diagnostics."""

import csv
import math
import os

import pytest

from repro.brunet.stats import survey
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
        s = survey(tb.deployment, sample_sources=6)
        assert s.n_nodes == 12 + 33
        assert s.ring_consistent
        assert s.degree_mean > 2
        assert s.connections_by_type["structured.near"] > 0
        assert s.hop_mean >= 1.0
        assert s.unreachable_pairs == 0
