"""Unit-level checks of the scaling experiment's §IV-A claim on a small
ring: every pair routes, hops stay near c·log²n, fresh nodes join fast."""

import math

import pytest

from repro.experiments import scaling_10k


@pytest.fixture(scope="module")
def point():
    return scaling_10k.measure_point(24, seed=9, sample_pairs=120)


def test_all_pairs_routable(point):
    assert point.unreachable == 0


def test_hops_reasonable_for_small_ring(point):
    assert 1.0 <= point.mean_hops <= 5.0
    assert point.p95_hops <= 10


def test_joins_fast(point):
    assert 0.0 < point.mean_join_s < 10.0


def test_normalisation_math(point):
    expected = point.mean_hops / (math.log2(24) ** 2)
    assert point.hops_per_log2n_sq == pytest.approx(expected)


def test_report_renders(capsys, point):
    scaling_10k.report([point])
    out = capsys.readouterr().out
    assert "Ring scaling" in out
    assert "24" in out
    assert "mean join (s)" in out
    assert "KiB/node" in out
