"""scaling_10k experiment: warm-start formation + measurement smoke."""

from __future__ import annotations

import math

from repro.brunet.config import BrunetConfig
from repro.experiments import scaling_10k
from repro.sim.engine import Simulator


def test_measure_point_small_ring_is_clean():
    p = scaling_10k.measure_point(n=80, seed=3, settle=20.0,
                                  sample_pairs=60, audit_budget=50)
    assert p.n_nodes == 80 and p.events > 0
    assert math.isfinite(p.mean_hops) and p.mean_hops >= 1.0
    assert p.unreachable == 0
    assert not p.violations
    assert p.churn is None


def test_churn_slice_recovers():
    p = scaling_10k.measure_point(n=80, seed=3, settle=20.0,
                                  sample_pairs=60, churn_fraction=0.05,
                                  churn_horizon=150.0,
                                  audit_budget=50)
    assert p.churn is not None
    assert p.churn.n_killed == 4
    assert p.churn.recovery_ring is not None
    assert p.churn.routable_end == 1.0


def test_fit_recovers_exact_log2_coefficient():
    pts = [scaling_10k.Scale10kPoint(
        n_nodes=n, mean_hops=0.25 * math.log2(n) ** 2, p95_hops=0.0,
        unreachable=0, mean_join_s=0.0, sample_pairs=0, events=0,
        wall_s=0.0)
        for n in (100, 1000, 10000)]
    assert abs(scaling_10k.fit_k(pts) - 0.25) < 1e-12


def test_build_allocates_hosts_past_one_slash_24():
    """Regression: a public site is one /24 (252 hosts), and an overlay
    that put every host in one site died at host 252 with ``ValueError:
    subnet ... exhausted``.  Only allocation is under test, so the
    kernel never runs an event here."""
    kernel = Simulator(seed=0, trace=False)
    _internet, nodes = scaling_10k.build_warm_overlay(
        kernel, n=1100, config=BrunetConfig())
    assert len(nodes) == 1100
    assert len({node.host.ip for node in nodes}) == 1100
    assert kernel.events_processed == 0


def test_main_cli_smoke(capsys):
    rc = scaling_10k.main(["--sizes", "60", "--settle", "15",
                           "--sample-pairs", "40", "--churn-fraction", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "least-squares fit" in out
    assert "mean join (s)" in out
    assert "[audit] clean" in out
