"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one mechanism and checks the direction of the effect:

* far-connection count k — routing hop count (§IV-A: O(log²n / k));
* the shortcut overlord — virtual-network RTT for a communicating pair;
* the linking back-off constants — the UFL-UFL shortcut delay scales with
  the URI-ladder length (footnote 2).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.routing import overlay_hop_count
from repro.brunet.uri import Uri
from repro.phys import Internet, Site
from repro.sim import Simulator


def build_ring(n, config, seed=0):
    sim = Simulator(seed=seed, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    rng = sim.rng.stream("ab")
    nodes, boot = [], []
    for i in range(n):
        h = site.add_host(f"h{i}")
        node = BrunetNode(sim, h, random_address(rng), config, name=f"n{i}")
        node.start(list(boot))
        if not boot:
            boot.append(Uri.udp(h.ip, node.port))
        nodes.append(node)
        sim.run(until=sim.now + 1.5)
    sim.run(until=sim.now + 120)
    return sim, nodes


def mean_hops(nodes):
    reg = {n.addr: n for n in nodes}
    hops = [overlay_hop_count(a, b.addr, reg.get)
            for a in nodes[:10] for b in nodes if a is not b]
    return float(np.mean([h for h in hops if h is not None]))


def test_ablation_far_count_vs_hops(benchmark):
    def sweep():
        results = {}
        for k in (1, 2, 4, 8):
            _, nodes = build_ring(30, BrunetConfig(far_count=k), seed=3)
            results[k] = mean_hops(nodes)
        return results

    hops = run_once(benchmark, sweep)
    print("\nfar-count ablation (mean overlay hops, n=30):", hops)
    assert hops[8] < hops[1]  # more far links → shorter routes
    assert hops[1] <= 9.0


def test_ablation_backoff_ladder_length(benchmark):
    """The UFL-UFL shortcut delay is the URI give-up time: shrinking the
    retry ladder shrinks it proportionally."""
    def give_up_times():
        short = BrunetConfig(link_max_retries=3)   # 5+10+20 = 35 s
        long = BrunetConfig(link_max_retries=5)    # 155 s
        return short.uri_give_up_time(), long.uri_give_up_time()

    short_t, long_t = run_once(benchmark, give_up_times)
    assert short_t == 35.0
    assert long_t == 155.0
    assert long_t / short_t > 4.0
