"""Overlay scaling sweep (the paper's §I/§VI scalability claim).

"The overlay IP-over-P2P routing infrastructure of WOW is based on
algorithms that are designed to scale to very large systems": greedy
routing over k structured-far links gives O((1/k)·log²n) expected hops
(§IV-A).  This sweep grows the overlay and measures mean greedy hop count
and join latency, checking the predicted sub-logarithmic-squared growth —
an experiment the paper argues for but does not run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.routing import overlay_hop_count
from repro.brunet.uri import Uri
from repro.experiments.common import print_table
from repro.phys import Internet, Site
from repro.sim import Simulator


#: hosts per public :class:`Site`: a site is one /24 (252 allocatable
#: addresses), so ``measure`` opens a new one before that runs out
HOSTS_PER_SITE = 250


@dataclass
class ScalePoint:
    n_nodes: int
    mean_hops: float
    p95_hops: float
    mean_join_s: float
    unreachable: int

    @property
    def hops_per_log2n_sq(self) -> float:
        return self.mean_hops / (math.log2(self.n_nodes) ** 2)


def measure(n_nodes: int, seed: int = 0, far_count: int = 4,
            sample_pairs: int = 400) -> ScalePoint:
    """Build an ``n_nodes`` public overlay and survey it.

    Hosts fill public sites of :data:`HOSTS_PER_SITE`; up to that size
    the overlay sits in the single site ``pub``."""
    sim = Simulator(seed=seed, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    config = BrunetConfig(far_count=far_count)
    rng = sim.rng.stream("scaling")
    nodes: list[BrunetNode] = []
    bootstrap: list[Uri] = []
    join_times: list[float] = []
    for i in range(n_nodes):
        if i and i % HOSTS_PER_SITE == 0:
            site = Site(net, f"pub{i // HOSTS_PER_SITE}")
        host = site.add_host(f"n{i}")
        node = BrunetNode(sim, host, random_address(rng), config,
                          name=f"n{i}")
        t0 = sim.now
        node.start(list(bootstrap))
        if not bootstrap:
            bootstrap.append(Uri.udp(host.ip, node.port))
        nodes.append(node)
        sim.run(until=sim.now + 1.0)
        if node.joined_at is not None:
            join_times.append(node.joined_at - t0)
    sim.run(until=sim.now + 120.0)
    join_times.extend(n.joined_at - n.started_at for n in nodes
                      if n.joined_at is not None
                      and n.joined_at - n.started_at > 1.0)

    reg = {n.addr: n for n in nodes}
    pair_rng = sim.rng.stream("scaling.pairs")
    hops: list[int] = []
    unreachable = 0
    for _ in range(sample_pairs):
        a, b = pair_rng.choice(len(nodes), size=2, replace=False)
        h = overlay_hop_count(nodes[int(a)], nodes[int(b)].addr, reg.get)
        if h is None:
            unreachable += 1
        else:
            hops.append(h)
    return ScalePoint(
        n_nodes=n_nodes,
        mean_hops=float(np.mean(hops)) if hops else float("nan"),
        p95_hops=float(np.percentile(hops, 95)) if hops else float("nan"),
        mean_join_s=float(np.mean(join_times)) if join_times else 0.0,
        unreachable=unreachable)


def run(sizes=(32, 64, 128, 256), seed: int = 0,
        far_count: int = 4) -> list[ScalePoint]:
    return [measure(n, seed=seed, far_count=far_count) for n in sizes]


def report(points: list[ScalePoint]) -> None:
    print_table(
        "Overlay scaling sweep — greedy routing vs network size",
        ["nodes", "mean hops", "p95 hops", "hops / log²n",
         "mean join (s)", "unreachable pairs"],
        [[p.n_nodes, f"{p.mean_hops:.2f}", f"{p.p95_hops:.0f}",
          f"{p.hops_per_log2n_sq:.3f}", f"{p.mean_join_s:.1f}",
          p.unreachable] for p in points])


def main(sizes=(32, 64, 128), seed: int = 0) -> list[ScalePoint]:
    points = run(sizes=sizes, seed=seed)
    report(points)
    return points


if __name__ == "__main__":  # pragma: no cover
    main()
