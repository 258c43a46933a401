"""Memory per node on a settled warm ring: one bound, and pins that name
the cause when it trips.

A 1 000-node ring built the way ``scaling_10k`` builds it (metrics scaled
with ``obs.scale_to``, tracer off) is settled to t = 30 s, and the Python
heap it holds is read with ``tracemalloc``: about 9.7 KiB a node, against
11.0 while the next-hop memo keyed every lookup by a fresh
``(my_addr, dest, exclude_dest_link, approach)`` tuple and the ring view
held int copies of the peers' addresses, and 17.5 before connection
labels were shared, far-link streams drawn on first use, overlords called
by their node instead of hooked, and ``BrunetNode`` slotted.  The pins
below each guard one of those.  The ring is built once for the module.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.routing import next_hop
from repro.experiments.scaling_10k import build_warm_overlay
from repro.sim import Simulator

N = 1000
KIB_PER_NODE = 10.5
PROBES = 5000
#: heap a node may gain routing PROBES probes: 0.77 KiB measured, nearly
#: all of it the memo dicts' own slots; 2.41 with a tuple key per entry
PROBE_KIB_PER_NODE = 1.2


@pytest.fixture(scope="module")
def ring():
    """The settled ring and the heap it took; traced until the module
    ends, so a later measure nets out what it frees of the build."""
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
        yield sim, nodes, used
    finally:
        tracemalloc.stop()


def test_settled_warm_ring_fits_the_per_node_budget(ring):
    sim, nodes, used = ring
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


def test_ring_view_shares_the_peers_addresses(ring):
    _sim, nodes, _used = ring
    for node in nodes:
        addrs, conns = node.table.ring_view()
        assert addrs == sorted(addrs)
        assert all(a is c.peer_addr for a, c in zip(addrs, conns))


def test_next_hop_memo_holds_plain_destinations_only(ring):
    _sim, nodes, _used = ring
    for node in nodes:
        assert all(type(dest) is BrunetAddress
                   for dest in node.table.next_hop_cache)
    node = nodes[0]
    before = dict(node.table.next_hop_cache)
    # a CTM-to-self lookup, as an announce routes it, is never memoized
    next_hop(node.table, node.addr, node.addr, True, None)
    next_hop(node.table, node.addr, nodes[N // 2].addr, True, "left")
    assert node.table.next_hop_cache == before


def test_routing_probes_fit_the_growth_budget(ring):
    sim, nodes, _used = ring
    rng = np.random.default_rng(44)
    payload = ("probe",)          # one object, carried by reference
    # let the t = 30 s announce burst land first: its in-flight CTMs
    # free 0.9 KiB a node, which would hide the probes' growth
    sim.run(until=sim.now + 2.0)
    delivered = sum(node.stats["delivered"] for node in nodes)
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    for _ in range(PROBES):
        a, b = rng.choice(N, size=2, replace=False)
        nodes[int(a)].send_routed(nodes[int(b)].addr, payload, 64)
    sim.run(until=sim.now + 2.0)
    gc.collect()
    grown = tracemalloc.get_traced_memory()[0] - base
    assert sum(node.stats["delivered"] for node in nodes) - delivered \
        >= 0.99 * PROBES
    kib = grown / N / 1024
    assert kib <= PROBE_KIB_PER_NODE, f"{kib:.2f} KiB per node"
