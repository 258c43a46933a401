"""Per-datagram call budget of the simulator's substrate.

A simulated datagram is one send, one kernel event, one delivery, and
between the node's ``send_direct`` and the receiving node's
``_on_datagram`` it crosses a fixed set of frames: ``SimTransport.send``
→ ``Internet.send`` (the NAT walk and the destination's resolution in
one body) → ``LatencyModel.sample`` → ``Simulator.schedule`` (which
pushes the heap entry itself) → the dispatch loop in ``Simulator.run``
→ ``Internet._deliver`` → the bound handler.  The counts below
(``sys.setprofile``, Python-level calls only) are deterministic, so they
can be pinned where a timing on a shared host cannot.

What would lose the gain while every behavioural test stays green:

* the dispatch loop's one look at the queue head stops taking the
  in-place branch (a live head) and falls back to ``Simulator._head()``
  for every event — or somebody reintroduces a peek-then-step pair;
* a helper frame comes back between ``Internet.send`` and
  ``Simulator.schedule``, or between ``schedule`` and the heap push;
* ``SimTransport.send`` in reference mode goes back through
  ``UdpSocket.send``, ``UdpSocket.endpoint`` becomes a property again,
  ``Internet._deliver`` goes back through per-host and per-socket
  ``deliver`` methods, or ``LatencyModel.sample`` through its accessors,
  a frame or two each per datagram;
* ``BrunetNode.send_over`` goes back through ``send_direct``;
* ``BrunetNode._on_datagram`` walks its ``isinstance`` ladder before it
  recognises a keep-alive;
* in codec mode, a keep-alive crosses ``encode`` / ``decode`` as a
  message object again instead of the fixed-layout byte path, or
  ``SimTransport`` sends through ``UdpSocket.send`` and counts with
  ``.inc()``;
* a next-hop scan computes its metric through a helper →
  ``ring_distance`` → ``directed_distance`` again (nine calls per
  undirected miss), or a NAT translation reads its clock through a
  callable or tests expiry through ``_expired`` (three calls each way).

In this file's own harness the path before it was straightened made 59
calls for the keep-alive exchange, 29 for the transit hop, 115 for the
echo and 3.73 ``_head`` calls per fired event; with the ring on a
sharded kernel and a delivery seam in ``Internet`` it made 36, 21, 90
and 0.86; with a destination-resolution helper behind ``Internet.send``,
an enqueue helper behind ``schedule``, ``UdpSocket.endpoint`` as a
property and ``send_over`` going through ``send_direct`` it made 34, 19
and 71, and 41 / 42 for the tick-driven exchange.
"""

import collections

import pytest

import numpy as np

from repro.brunet.address import random_address
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.messages import PingRequest
from repro.brunet.node import BrunetNode
from repro.brunet.routing import _next_hop_scan
from repro.brunet.table import ConnectionTable
from repro.experiments.scaling_10k import build_warm_overlay
from repro.ipop import Pinger
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.phys import Internet, Site
from repro.phys.endpoints import Endpoint
from repro.phys.nat import NatSpec
from repro.sim import Simulator

from tests.conftest import calls_by_name, count_calls
from tests.transport.test_cut_through_chain import _chain_ips

#: send request → deliver → send reply → deliver, as measured
KEEPALIVE_MEASURED = 28
KEEPALIVE_BUDGET = 29
#: a whole tick-driven keep-alive exchange (tick → request → reply), as
#: measured per wire mode: codec frames are built and read as fixed
#: layouts (75 when they crossed ``encode`` / ``decode`` as objects)
TICK_EXCHANGE_MEASURED = {"reference": 34, "codec": 35}
#: B's share of one A → B → C routed packet (deliver, route, resend)
TRANSIT_MEASURED = 15
#: one zero-hop ``Pinger`` echo: timer → request → reply → handler
ECHO_MEASURED = 62
#: one ``_next_hop_scan`` miss on a warm table, per approach side: the
#: scan, ``ConnectionTable.get`` (plain lookups only) and ``ring_view``
SCAN_MISS_MEASURED = {None: 3, "left": 2, "right": 2}
#: ``Simulator._head`` calls per fired event on the warm ring (0 measured:
#: no tombstone reaches the head in the window; a peek-then-step loop
#: adds two per event)
HEAD_PER_EVENT = 0.1


def _pin(measured: int) -> int:
    return measured * 105 // 100


def _linked_nodes(ips, **config):
    """Public nodes on a plain ``Simulator`` (reference mode unless
    ``config`` says otherwise), linked in a chain by fixed tables,
    overlords off and keep-alive ticks out of the way: wherever a node's
    address phase puts its first tick, it would land inside a counted
    window.  The ticks are pushed out rather than cancelled, so a live
    event stays queued and the kernel does not pay a ``_head`` call for
    an empty queue at the end of every run."""
    sim = Simulator(seed=5, trace=False)
    site = Site(Internet(sim), "pub")
    nodes = []
    for i, ip in enumerate(ips):
        node = BrunetNode(sim, site.add_host(f"n{i}"), addr_for_ip(ip),
                          BrunetConfig(ping_interval=1e9, **config),
                          name=f"n{i}")
        node.start([])
        for overlord in node.overlords:
            overlord.stop()
        nodes.append(node)
    for left, right in zip(nodes, nodes[1:]):
        for x, y in ((left, right), (right, left)):
            x.table.add(Connection(y.addr, y.transport.local_endpoint,
                                   ConnectionType.STRUCTURED_NEAR, sim.now))
    return sim, nodes


def test_keepalive_exchange_stays_inside_its_call_budget():
    sim, (a, b) = _linked_nodes(("10.128.0.2", "10.128.0.3"))
    calls = 0
    for _ in range(3):                  # first pass warms, last one counts
        request = PingRequest(a.next_token(), a.addr)
        conn = a.table.get(b.addr)
        conn.unanswered_pings += 1
        heard = conn.last_heard
        calls = count_calls(a.send_direct, conn.remote_endpoint, request,
                            a.config.size_ping)
        calls += count_calls(sim.run, sim.now + 0.5)
        assert conn.last_heard > heard and conn.unanswered_pings == 0
    assert calls <= KEEPALIVE_BUDGET, (
        f"{calls} calls per keep-alive exchange, budget {KEEPALIVE_BUDGET} "
        f"(measured {KEEPALIVE_MEASURED}): which frame came back?")


@pytest.mark.parametrize("wire_mode", sorted(TICK_EXCHANGE_MEASURED))
def test_tick_driven_keepalive_exchange_stays_inside_its_call_budget(
        wire_mode):
    """One ``_ping_tick`` on A with its link silent, then the run that
    carries the request to B and the reply back.  In codec mode the
    frames are ``wire.ping_frame`` / ``ping_reply_frame`` bytes read by
    ``wire.frame_view``."""
    sim, (a, b) = _linked_nodes(("10.128.0.2", "10.128.0.3"),
                                wire_mode=wire_mode)
    conn = a.table.get(b.addr)
    calls = collections.Counter()
    for _ in range(3):                  # first pass warms, last one counts
        conn.last_heard = sim.now - a.config.ping_interval
        calls = calls_by_name(a._ping_tick)
        assert conn.unanswered_pings == 1
        calls += calls_by_name(sim.run, sim.now + 0.5)
        assert conn.unanswered_pings == 0 and conn.last_heard > 0
    budget = _pin(TICK_EXCHANGE_MEASURED[wire_mode])
    total = sum(calls.values())
    assert total <= budget, (
        f"{total} calls per {wire_mode} keep-alive exchange, budget "
        f"{budget}: most frequent {calls.most_common(8)}")


def test_transit_hop_stays_inside_its_call_budget():
    sim, (a, b, c) = _linked_nodes(_chain_ips())
    got = []
    c.payload_handlers[str] = got.append
    calls = 0
    for _ in range(3):
        a.send_routed(c.addr, "probe", 64)
        forwarded = b.stats["forwarded"]
        calls = count_calls(sim.step)   # the datagram reaches B, B resends
        assert b.stats["forwarded"] == forwarded + 1
        sim.run(until=sim.now + 0.5)
    assert len(got) == 3 and all(p.hops == 2 for p in got)
    assert calls <= _pin(TRANSIT_MEASURED), (
        f"{calls} calls per transit hop, budget {_pin(TRANSIT_MEASURED)}")


def test_zero_hop_pinger_echo_stays_inside_its_call_budget():
    ips = ("10.128.0.2", "10.128.0.3")
    sim, nodes = _linked_nodes(ips)
    routers = [IpopRouter(node, ip) for node, ip in zip(nodes, ips)]
    pinger = Pinger(routers[0])
    done = pinger.run(ips[1], count=4, interval=1.0)
    sim.run(until=sim.now + 1.5)        # echoes 0 and 1 warm the path
    calls = count_calls(sim.run, sim.now + 1.0)     # echo 2, all of it
    sim.run(until=sim.now + 5.0)
    assert done.value.replied.all()
    assert calls <= _pin(ECHO_MEASURED), (
        f"{calls} calls per zero-hop echo, budget {_pin(ECHO_MEASURED)}")


@pytest.mark.parametrize("approach", sorted(SCAN_MISS_MEASURED, key=str))
def test_next_hop_scan_miss_makes_no_call_for_its_metric(approach):
    """A memo miss on a warm 200-peer table: the metric of each bisect
    candidate is computed inline, so the calls do not depend on how many
    candidates the scan weighs (twelve for a plain miss when it called a
    metric helper → ``ring_distance`` → ``directed_distance`` for itself
    and each of two candidates)."""
    rng = np.random.default_rng(11)
    me = random_address(rng)
    table = ConnectionTable(me)
    for i in range(200):
        table.add(Connection(random_address(rng), Endpoint("1.1.1.1", i + 1),
                             ConnectionType.STRUCTURED_NEAR, 0.0))
    dests = [random_address(rng) for _ in range(8)]
    _next_hop_scan(table, me, dests[0], False, approach)  # builds the view
    for exclude in (False, True):
        calls = {count_calls(_next_hop_scan, table, me, d, exclude, approach)
                 for d in dests}
        want = 2 if exclude else SCAN_MISS_MEASURED[approach]
        assert calls == {want}, (approach, exclude, calls)


def test_a_nat_translation_is_one_call_each_way():
    """A datagram out through a cone NAT, and the reply in through it,
    cost exactly one call more than the same datagram between public
    hosts: the translation itself.  ``Datagram.hop`` labels the path of
    a traced datagram only (an untraced one made it two calls each way).
    The mapping's expiry is tested inline, the kernel's ``now`` is read
    as an attribute and the public endpoint is built once per mapping (a
    clock ``lambda``, ``_expired`` and an ``Endpoint`` made the outbound
    translation four calls)."""
    sim = Simulator(seed=5, trace=False)
    net = Internet(sim)
    home = Site(net, "home", subnet="10.6.", nat_spec=NatSpec.cone())
    pub = Site(net, "pub")
    heard = []
    natted, server, other = (
        host.bind_udp(500, lambda payload, src, size: heard.append(src))
        for host in (home.add_host("g"), pub.add_host("p"),
                     pub.add_host("q")))
    for _ in range(3):                  # first pass maps, last one counts
        out = calls_by_name(natted.send, server.endpoint, "x", 10)
        sim.run()
        back = calls_by_name(server.send, heard[-1], "y", 10)
        sim.run()
        public = calls_by_name(other.send, server.endpoint, "x", 10)
        sim.run()
    mapped, replied, direct = heard[-3:]
    assert mapped.ip == home.nat.public_ip
    assert (replied, direct) == (server.endpoint, other.endpoint)
    assert out - public == {"translate_outbound": 1}, out
    assert back - public == {"translate_inbound": 1}, back
    assert not public - out and not public - back


def test_ring_inspects_the_queue_head_about_once_per_event(monkeypatch):
    """200 warm-started nodes on one ``Simulator``, 1000 routed probes per
    simulated second: the dispatch loop fires a live head in place and
    calls ``_head`` only for a tombstone or an empty queue."""
    kernel = Simulator(seed=5, trace=False)
    _internet, nodes = build_warm_overlay(
        kernel, 200, BrunetConfig(), k_far=4)
    kernel.run(until=10.0)
    got = []
    for node in nodes:
        node.payload_handlers[str] = got.append
    heads = 0
    original = Simulator._head

    def counted(sim):
        nonlocal heads
        heads += 1
        return original(sim)

    monkeypatch.setattr(Simulator, "_head", counted)
    events = kernel.events_processed
    for second in range(3):
        for j in range(1000):
            src, dst = nodes[(7 * j + second) % 200], nodes[(13 * j + 5) % 200]
            if src is not dst:
                kernel.schedule_at(kernel.now + j / 1000, src.send_routed,
                                   dst.addr, "p", 64)
        kernel.run(until=kernel.now + 1.0)
    events = kernel.events_processed - events
    assert len(got) > 2500 and events > 12000
    assert heads <= HEAD_PER_EVENT * events, (
        f"{heads} _head calls for {events} events "
        f"({heads / events:.2f} per event, budget {HEAD_PER_EVENT})")
