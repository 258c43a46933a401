"""ShardedKernel: single-shard byte-identity, multi-shard correctness."""

from __future__ import annotations

import hashlib

import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.uri import Uri
from repro.check import invariants
from repro.phys import Internet, Site
from repro.sim import ShardedKernel, SimulationError, Simulator

ADDRESS_SPACE = 1 << 160


def _trace_digest(tracer) -> str:
    h = hashlib.sha256()
    for cat in sorted(tracer.records):
        h.update(cat.encode())
        for t, data in tracer.records[cat]:
            h.update(repr((t, sorted(data.items()))).encode())
    return h.hexdigest()


def _build_overlay_on(sim, n_nodes: int, settle: float = 60.0):
    """conftest.build_overlay, inlined so both kernels run the exact same
    call sequence against whatever `sim` object they are handed."""
    internet = Internet(sim)
    site = Site(internet, "pub")
    config = BrunetConfig()
    rng = sim.rng.stream("tests.overlay")
    nodes, bootstrap = [], []
    for i in range(n_nodes):
        host = site.add_host(f"ov{i}")
        node = BrunetNode(sim, host, random_address(rng), config,
                          name=f"ov{i}")
        node.start(list(bootstrap))
        if not bootstrap:
            bootstrap.append(Uri.udp(host.ip, node.port))
        nodes.append(node)
        sim.run(until=sim.now + 5.0)
    sim.run(until=sim.now + settle)
    return nodes


def test_single_shard_trajectory_is_byte_identical():
    plain = Simulator(seed=42, trace=True)
    _build_overlay_on(plain, 8)
    kernel = ShardedKernel(seed=42, shards=1, trace=True)
    _build_overlay_on(kernel, 8)
    assert kernel.events_processed == plain.events_processed
    assert _trace_digest(kernel.tracer) == _trace_digest(plain.tracer)
    assert kernel.now == plain.now


def test_partition_covers_ring_in_order():
    k = ShardedKernel(seed=0, shards=4)
    assert k.shard_index(0) == 0
    assert k.shard_index(ADDRESS_SPACE - 1) == 3
    # region boundaries are monotone: walking the ring never goes back a shard
    idxs = [k.shard_index(a * ADDRESS_SPACE // 64) for a in range(64)]
    assert idxs == sorted(idxs)
    assert set(idxs) == {0, 1, 2, 3}


def test_rejects_bad_parameters():
    with pytest.raises(SimulationError):
        ShardedKernel(shards=0)
    with pytest.raises(SimulationError):
        ShardedKernel(lookahead=0.0)
    with pytest.raises(SimulationError):
        ShardedKernel(shards=2).step()


def test_cross_shard_delivery_is_clamped_and_ordered():
    kernel = ShardedKernel(seed=1, shards=2, lookahead=0.05)
    internet = Internet(kernel)
    kernel.attach(internet)
    site = Site(internet, "pub")
    host = site.add_host("far")
    kernel.register_host(host, ADDRESS_SPACE - 1)  # lives on shard 1
    arrivals = []
    internet._deliver = lambda h, d: arrivals.append(kernel.now)
    # scheduled from (idle) shard 0 at t=0 with a sub-lookahead delay
    internet._schedule_delivery(0.001, host, object())
    internet._schedule_delivery(0.2, host, object())
    assert kernel.cross_shard == 2
    assert [t for t, _seq, _fn, _args in kernel._mail[1]] == [0.05, 0.2]
    kernel.run()
    assert arrivals == [0.05, 0.2]  # clamp floor, then the honest delay


def test_same_shard_delivery_keeps_exact_delay():
    kernel = ShardedKernel(seed=1, shards=2, lookahead=0.05)
    internet = Internet(kernel)
    kernel.attach(internet)
    site = Site(internet, "pub")
    host = site.add_host("near")
    kernel.register_host(host, 1)  # shard 0, same as the idle default
    arrivals = []
    internet._deliver = lambda h, d: arrivals.append(kernel.now)
    internet._schedule_delivery(0.001, host, object())
    kernel.run()
    assert kernel.cross_shard == 0
    assert arrivals == [0.001]


def test_schedule_routes_to_the_executing_shard():
    kernel = ShardedKernel(seed=0, shards=2, lookahead=1.0)
    fired = []

    def inner():
        fired.append(kernel.now)

    def outer():
        # self-scheduling from a shard-1 callback stays on shard 1
        kernel.schedule(2.5, inner)

    kernel.shard(1).schedule(1.0, outer)
    kernel.run()
    assert fired == [3.5]
    assert kernel.shard(1).events_processed == 2
    assert kernel.shard(0).events_processed == 0


def test_idle_skip_jumps_far_gaps():
    kernel = ShardedKernel(seed=0, shards=2, lookahead=0.01)
    fired = []
    kernel.shard(1).schedule(1000.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [1000.0]
    # 1000 s at 10 ms windows would be 100k rounds without the jump
    assert kernel.rounds <= 3


def test_run_until_advances_all_shard_clocks():
    kernel = ShardedKernel(seed=0, shards=3, lookahead=0.5)
    assert kernel.run(until=12.0) == 12.0
    assert all(s.now == 12.0 for s in kernel.shards)
    assert kernel.now == 12.0


def test_stop_mid_round_resumes_where_it_left_off():
    """A stop from a shard-1 event inside a window: shard 1 has more
    events in that window and shard 2 has not run it yet.  Their clocks
    and the barrier stay where those events lie, so the next ``run()``
    fires them in time order — it used to move every clock to the end of
    the window and die with "time went backwards"."""
    kernel = ShardedKernel(seed=0, shards=3, lookahead=1.0)
    fired = []

    def mark(tag):
        fired.append((tag, kernel.now))

    kernel.shard(0).schedule_at(0.2, mark, "a")
    kernel.shard(1).schedule_at(0.3, kernel.stop)
    kernel.shard(1).schedule_at(0.6, mark, "b")
    kernel.shard(2).schedule_at(0.4, mark, "c")
    kernel.shard(2).schedule_at(1.5, mark, "d")
    kernel.run(until=5.0)
    assert fired == [("a", 0.2)]
    assert kernel.shard(1).now == 0.3 and kernel.shard(2).now <= 0.4
    assert kernel.run(until=5.0) == 5.0
    assert fired == [("a", 0.2), ("b", 0.6), ("c", 0.4), ("d", 1.5)]
    assert all(s.now == 5.0 for s in kernel.shards)


def test_multi_shard_overlay_forms_consistent_ring():
    """24 nodes over 4 shards: the full join protocol runs across the
    mailbox seam and must still converge to a consistent, routable ring."""
    kernel = ShardedKernel(seed=9, shards=4, lookahead=0.002, trace=False)
    internet = Internet(kernel)
    kernel.attach(internet)
    site = Site(internet, "pub")
    config = BrunetConfig()
    rng = kernel.rng.stream("tests.overlay")
    nodes, bootstrap = [], []
    for i in range(24):
        host = site.add_host(f"sh{i}")
        addr = random_address(rng)
        kernel.register_host(host, int(addr))
        node = BrunetNode(kernel, host, addr, config, name=f"sh{i}")
        nodes.append(node)
        uris = list(bootstrap)
        if not bootstrap:
            bootstrap.append(Uri.udp(host.ip, config.default_port))
        # the start event runs on the node's owning shard, so all of the
        # node's self-timers live there from the first tick
        kernel.shard(kernel.shard_index(int(addr))).schedule_at(
            i * 5.0, node.start, uris)
    kernel.run(until=24 * 5.0 + 240.0)
    assert kernel.cross_shard > 0
    assert kernel.rounds > 0
    live = [n for n in nodes if n.active]
    assert len(live) == 24
    assert not invariants.check_ring(live, kernel.now)
    assert not invariants.check_routing(live, kernel.now)
