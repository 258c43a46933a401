"""OverlaySurvey unit tests: empty, singleton and small live overlays."""

import pytest

from repro.brunet.stats import OverlaySurvey, survey
from repro.core.wow import Deployment
from repro.sim.engine import Simulator


def _deployment_with_routers(n):
    sim = Simulator(seed=7, trace=False)
    dep = Deployment(sim)
    site = dep.add_public_site("pub")
    for i in range(n):
        host = site.add_host(f"h{i}")
        dep.add_router_node(host, seed=(i == 0), name=f"n{i}")
        sim.run(until=sim.now + 3.0)
    sim.run(until=sim.now + 120.0)
    return sim, dep


def test_survey_empty_overlay():
    sim = Simulator(seed=1, trace=False)
    dep = Deployment(sim)
    out = survey(dep)
    assert out.n_nodes == 0
    assert out.ring_consistent  # vacuously
    assert out.connections_by_type == {}
    assert out.degree_mean == 0.0
    assert out.degree_max == 0
    assert out.hop_counts == []
    assert out.unreachable_pairs == 0
    # percentile helpers must not choke on the empty route sample
    assert out.hop_mean == 0.0
    assert out.hop_p95 == 0.0
    lines = out.summary_lines()
    assert any("ring consistent: True" in line for line in lines)
    assert not any(line.startswith("routes:") for line in lines)


def test_survey_singleton_overlay():
    sim = Simulator(seed=2, trace=False)
    dep = Deployment(sim)
    site = dep.add_public_site("pub")
    dep.add_router_node(site.add_host("solo"), seed=True, name="solo")
    sim.run(until=sim.now + 30.0)
    out = survey(dep)
    assert out.n_nodes == 1
    assert out.ring_consistent
    # a lone node has nobody to link to and no routes to sample
    assert out.degree_max == 0
    assert out.hop_counts == []
    assert out.hop_mean == 0.0 and out.hop_p95 == 0.0


def test_survey_small_overlay_degrees_and_hops():
    sim, dep = _deployment_with_routers(6)
    out = survey(dep)
    assert out.n_nodes == 6
    assert out.ring_consistent
    assert out.unreachable_pairs == 0
    # every node holds at least its two ring neighbours
    assert out.degree_mean >= 2.0
    assert out.degree_max >= out.degree_mean
    assert out.connections_by_type["structured.near"] > 0
    # routes were sampled; percentiles are well-formed and ordered
    assert out.hop_counts
    assert all(h >= 1 for h in out.hop_counts)
    assert 1.0 <= out.hop_mean <= out.hop_p95 <= max(out.hop_counts)
    assert any(line.startswith("routes:") for line in out.summary_lines())


def test_survey_without_routes_skips_sampling():
    sim, dep = _deployment_with_routers(3)
    out = survey(dep, include_routes=False)
    assert out.hop_counts == [] and out.unreachable_pairs == 0
    assert out.degree_mean > 0


def test_hop_percentiles_direct():
    out = OverlaySurvey(n_nodes=4, ring_consistent=True,
                        hop_counts=[1, 1, 2, 3])
    assert out.hop_mean == pytest.approx(1.75)
    assert out.hop_p95 == pytest.approx(2.85)


def test_survey_strides_round_up_to_at_most_k_sources_and_dests():
    """n = 23 with 12 sources: a floored stride of 1 routed from all 23
    nodes; the ceiling stride of 2 routes from 12."""
    sim, dep = _deployment_with_routers(23)
    out = survey(dep, sample_sources=12)
    assert out.unreachable_pairs == 0
    assert len(out.hop_counts) == 12 * 23 - 12
    # destinations 0, 5, 10, 15, 20; sources 0, 10 and 20 skip themselves
    out = survey(dep, sample_sources=12, sample_dests=5)
    assert len(out.hop_counts) + out.unreachable_pairs == 12 * 5 - 3
