"""Keep-alives out of step: each node's first tick comes from its address.

Every node ticks its keep-alive every ``ping_interval / 2`` and pings a
peer it has not heard from for ``ping_interval`` (§IV-B).  Anchored at
``start()`` alone, nodes started in one instant tick in one instant, so
both ends of every link find each other silent and ping together.  The
first tick therefore comes ``ping_interval / 2 · keepalive_phase(addr)``
after ``start()``: whichever end of a link ticks first pings, and the
other has just heard from it and stays quiet.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.address import BrunetAddress
from repro.brunet.messages import PingRequest
from repro.brunet.node import keepalive_phase
from repro.experiments.scaling_10k import build_warm_overlay
from repro.phys import Internet, Site
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

NODES = 200
SETTLE = 60.0


def _warm_ring(config: BrunetConfig, seed: int = 5):
    """200 warm-started nodes, all started at t = 0."""
    kernel = Simulator(seed=seed, trace=False)
    _internet, nodes = build_warm_overlay(kernel, NODES, config, k_far=4)
    return kernel, nodes


def _links(nodes) -> set:
    return {frozenset((int(n.addr), int(c.peer_addr)))
            for n in nodes for c in n.table.all()}


def test_a_ring_started_in_one_instant_pings_each_link_about_once(
        monkeypatch):
    """Over three keep-alive cycles of a healthy link (a ping, a reply
    heard ``rtt`` later, silence until ``rtt + ping_interval``: three
    ticks), a link whose ends tick in step carries about two pings a
    cycle (1.69 measured) and one whose ends tick apart about one
    (0.92)."""
    config = BrunetConfig()
    kernel, nodes = _warm_ring(config)
    pings = 0
    real = BrunetNode.send_direct

    def send_direct(self, dst, msg, size):    # every node is in the ring
        nonlocal pings
        pings += type(msg) is PingRequest
        real(self, dst, msg, size)

    monkeypatch.setattr(BrunetNode, "send_direct", send_direct)
    kernel.run(until=SETTLE)
    pings = 0
    cycle = 3 * config.ping_interval / 2
    kernel.run(until=SETTLE + 3 * cycle)
    links = _links(nodes)
    assert len(links) >= 2 * NODES          # nothing fell apart
    per_link = pings / len(links) / 3
    assert 0.5 <= per_link <= 1.25, per_link
    # one keep-alive timer per node, a kernel event like any other
    ticks = Counter(ev.fn.__self__ for ev in kernel.iter_pending()
                    if getattr(ev.fn, "__func__", None)
                    is BrunetNode._ping_tick)
    assert sorted(ticks.values()) == [1] * NODES


def test_first_tick_is_a_pure_function_of_the_address():
    rng = np.random.default_rng(11)
    addrs = [random_address(rng) for _ in range(64)]
    phases = [keepalive_phase(a) for a in addrs]
    assert all(0.0 < u <= 1.0 for u in phases)
    assert len(set(phases)) == len(phases)          # not one shared phase
    assert phases == [keepalive_phase(BrunetAddress(int(a))) for a in addrs]
    assert keepalive_phase(BrunetAddress(0)) > 0.0
    assert keepalive_phase(BrunetAddress((1 << 160) - 1)) == 1.0
    # ring neighbours (addresses that share their top bits) do not share
    # a phase
    left = BrunetAddress(0xABCD << 144)
    assert keepalive_phase(left) != keepalive_phase(left.offset(1 << 40))

    config = BrunetConfig()
    for addr in addrs[:8]:
        sim = Simulator(seed=3, trace=False)
        host = Site(Internet(sim), "pub").add_host("h")
        node = BrunetNode(sim, host, addr, config, name="n")
        sim.run(until=2.5)
        node.start([])
        delay = config.ping_interval / 2 * keepalive_phase(addr)
        assert 0.0 < delay <= config.ping_interval / 2
        assert node._ping_timer.time == sim.now + delay
        # ... later ticks keep the period
        sim.run(until=node._ping_timer.time)
        assert node._ping_timer.time == sim.now + config.ping_interval / 2


def test_start_draws_nothing_from_the_rng():
    sim = Simulator(seed=3, trace=False)
    host = Site(Internet(sim), "pub").add_host("h")
    node = BrunetNode(sim, host, random_address(sim.rng.stream("t.addr")),
                      BrunetConfig(), name="n")
    node.start([])
    sim.run(until=60.0)
    fresh = RngRegistry(3)
    for name in sim.rng.names():
        if name != "t.addr":
            assert (sim.rng.stream(name).bit_generator.state
                    == fresh.stream(name).bit_generator.state), name


def test_a_crashed_node_is_dropped_within_the_detection_bound():
    """Nothing heard since ``last`` ≤ the crash: the first tick that finds
    the link silent for ``ping_interval`` comes within one tick of
    ``last + ping_interval``, it and the next ``ping_retries`` ticks each
    send an unanswered ping, and the tick after drops the link.  The
    phase moves only the first tick, which can come earlier, never
    later, so the bound is the same as with every node ticking in step."""
    config = BrunetConfig()
    tick = config.ping_interval / 2
    bound = config.ping_interval + (config.ping_retries + 2) * tick
    # datagrams the victim launched before it crashed still land
    in_flight = 1.0
    kernel, nodes = _warm_ring(config, seed=8)
    kernel.run(until=SETTLE)
    for victim in (nodes[17], nodes[120]):
        neighbours = [n for n in nodes
                      if n.table.get(victim.addr) is not None]
        assert len(neighbours) >= 4
        crash = kernel.now
        victim.stop()
        victim.host.shutdown()
        assert not any(ev.fn == victim._ping_tick
                       for ev in kernel.iter_pending())
        kernel.run(until=crash + bound + in_flight)
        assert [n.name for n in neighbours
                if n.table.get(victim.addr) is not None] == []
