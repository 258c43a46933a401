"""scaling_10k experiment: warm-start formation + measurement smoke."""

from __future__ import annotations

import math

from repro.experiments import scaling_10k


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
        unreachable=0, sample_pairs=0, events=0, wall_s=0.0)
        for n in (100, 1000, 10000)]
    assert abs(scaling_10k.fit_k(pts) - 0.25) < 1e-12


def test_main_cli_smoke(capsys):
    rc = scaling_10k.main(["--sizes", "60", "--settle", "15",
                           "--sample-pairs", "40", "--churn-fraction", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "least-squares fit" in out
    assert "[audit] clean" in out
