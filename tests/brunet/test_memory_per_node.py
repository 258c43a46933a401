"""Memory per node on a settled warm ring: one bound, and pins that name
the cause when it trips.

A 1 000-node ring built the way ``scaling_10k`` builds it (metrics scaled
with ``obs.scale_to``, tracer off) is settled to t = 30 s, and the Python
heap it holds is read with ``tracemalloc``: about 11 KiB a node, against
17.5 KiB before connection labels were shared, far-link streams drawn on
first use, overlords called by their node instead of hooked, and
``BrunetNode`` slotted.  The pins below each guard one of those.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.brunet.config import BrunetConfig
from repro.experiments.scaling_10k import build_warm_overlay
from repro.sim import Simulator

N = 1000
KIB_PER_NODE = 13.0


def test_settled_warm_ring_fits_the_per_node_budget():
    sim = Simulator(seed=0, trace=False)
    sim.obs.scale_to(N)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _internet, nodes = build_warm_overlay(sim, N, BrunetConfig(),
                                              k_far=4)
        sim.run(until=30.0)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()

    conns = [c for node in nodes for c in node.table.all()]
    # one shared label set per combination, not one set per connection
    assert len({id(c.types) for c in conns}) == len({c.types for c in conns})
    # a settled ring never tops up a far link, so builds no far stream
    assert not [name for name in sim.rng.names()
                if name.startswith("brunet.far.")]
    assert not hasattr(nodes[0], "__dict__")
    gauge = sim.obs.metrics.find("brunet.connections")
    assert len(gauge.fns) == sum(node.active for node in nodes) == N
    kib = used / N / 1024
    assert kib <= KIB_PER_NODE, f"{kib:.1f} KiB per node"
