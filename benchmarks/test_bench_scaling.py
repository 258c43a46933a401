"""Benchmark: overlay scaling sweep (extension experiment).

Validates the §IV-A claim that greedy routing over k far links needs
O((1/k)·log²n) hops: hop count must grow far slower than n, and the
normalised hops/log²n ratio must stay roughly flat.
"""

from benchmarks.conftest import run_once
from repro.experiments import scaling_10k


def test_scaling_sweep(benchmark):
    points = run_once(benchmark, scaling_10k.run, sizes=(32, 64, 128),
                      seed=2, churn_fraction=0.0)
    scaling_10k.report(points)
    by_n = {p.n_nodes: p for p in points}
    # every pair routable at every size
    assert all(p.unreachable == 0 for p in points)
    # hop growth is sub-linear: 4x the nodes, well under 2.5x the hops
    assert by_n[128].mean_hops / by_n[32].mean_hops < 2.5
    # the O(log²n) normalisation stays in a narrow band
    ratios = [p.hops_per_log2n_sq for p in points]
    assert max(ratios) / min(ratios) < 2.0
    # joins remain fast as the overlay grows (paper: seconds)
    assert all(p.mean_join_s < 10.0 for p in points)
