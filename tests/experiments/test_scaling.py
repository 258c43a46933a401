"""Unit-level checks of the scaling-sweep experiment."""

import math

import pytest

from repro.experiments import scaling


@pytest.fixture(scope="module")
def point():
    return scaling.measure(24, seed=9, sample_pairs=120)


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
    scaling.report([point])
    out = capsys.readouterr().out
    assert "Overlay scaling sweep" in out
    assert "24" in out


def test_measure_allocates_hosts_past_one_slash_24(monkeypatch):
    """Regression: ``run()``'s own default sizes end at 256 nodes, and
    ``measure`` put every host in one public /24, dying at host 252 with
    ``ValueError: subnet 150.1.0. exhausted``.  Only allocation is under
    test, so the kernel never runs an event here."""
    created = []

    class _AllocationOnly(scaling.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

        def run(self, until=None, max_events=None):
            return self.now

    monkeypatch.setattr(scaling, "Simulator", _AllocationOnly)
    point = scaling.measure(300, seed=0, sample_pairs=4)
    assert point.n_nodes == 300
    assert created[0].events_processed == 0
