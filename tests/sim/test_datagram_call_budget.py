"""Per-datagram call budget of the simulator's substrate.

A simulated datagram is one send, one kernel event, one delivery, and
between the node's ``send_direct`` and the receiving node's
``_on_datagram`` it crosses a fixed set of frames: ``SimTransport.send``
→ ``Internet.send`` → ``_resolve_and_schedule`` → ``LatencyModel.sample``
→ ``_schedule_delivery`` → ``Simulator.schedule`` → the dispatch loop in
``Simulator.run`` → ``Internet._deliver`` → the bound handler.  The
counts below (``sys.setprofile``, Python-level calls only) are
deterministic, so they can be pinned where a timing on a shared host
cannot.

What would lose the gain while every behavioural test stays green:

* the dispatch loop's one look at the queue head stops taking the
  in-place branch (a live head no parked wheel bucket can precede) and
  falls back to ``Simulator._head()`` for every event — or somebody
  reintroduces a peek-then-step pair;
* ``ShardedKernel.run`` enters shards whose head lies beyond the round's
  barrier again (eight ``Simulator.run`` entries per 2 ms round on
  ``sim_ring_3k``, most of them to fire nothing);
* ``SimTransport.send`` in reference mode goes back through
  ``UdpSocket.send``, ``Internet._deliver`` back through per-host and
  per-socket ``deliver`` methods, or ``LatencyModel.sample`` through its
  accessors, a frame or two each per datagram;
* ``BrunetNode._on_datagram`` walks its ``isinstance`` ladder before it
  recognises a keep-alive.

In this file's own harness the parent of the change that straightened
the path made 59 calls for the keep-alive exchange (36 now), 29 for the
transit hop (21), 115 for the echo (90) and 3.73 ``_head`` calls per
fired event (0.86).
"""

from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.messages import PingRequest
from repro.brunet.node import BrunetNode
from repro.experiments.scaling_10k import build_warm_overlay
from repro.ipop import Pinger
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.phys import Internet, Site
from repro.sim import Simulator
from repro.sim.shards import ShardedKernel

from tests.conftest import count_calls
from tests.transport.test_cut_through_chain import _chain_ips

#: send request → deliver → send reply → deliver, as measured
KEEPALIVE_MEASURED = 36
KEEPALIVE_BUDGET = 40
#: B's share of one A → B → C routed packet (deliver, route, resend)
TRANSIT_MEASURED = 21
#: one zero-hop ``Pinger`` echo: timer → request → reply → handler
ECHO_MEASURED = 90
#: ``Simulator._head`` calls per fired event on the sharded ring (0.86
#: measured; a peek-then-step loop adds two per event)
HEAD_PER_EVENT = 1.5


def _pin(measured: int) -> int:
    return measured * 105 // 100


def _linked_nodes(ips):
    """Public nodes on a plain ``Simulator`` in reference mode, linked in
    a chain by fixed tables, overlords off."""
    sim = Simulator(seed=5, trace=False)
    site = Site(Internet(sim), "pub")
    nodes = []
    for i, ip in enumerate(ips):
        node = BrunetNode(sim, site.add_host(f"n{i}"), addr_for_ip(ip),
                          BrunetConfig(), name=f"n{i}")
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


def test_sharded_ring_inspects_the_queue_head_about_once_per_event(
        monkeypatch):
    """8 shards, 200 warm-started nodes, 1000 routed probes per simulated
    second (a 2 ms round then fires about eight events): the kernel peeks
    at every shard once a round — those eight calls are in the count —
    the dispatch loop fires in place, and nothing else calls ``_head``."""
    kernel = ShardedKernel(seed=5, shards=8, lookahead=0.002, trace=False)
    _internet, nodes = build_warm_overlay(
        kernel, 200, BrunetConfig(batch_timers=True), k_far=4)
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
                kernel.shard(kernel.shard_index(int(src.addr))).schedule_at(
                    kernel.now + j / 1000, src.send_routed, dst.addr, "p", 64)
        kernel.run(until=kernel.now + 1.0)
    events = kernel.events_processed - events
    assert len(got) > 2500 and events > 12000
    assert heads <= HEAD_PER_EVENT * events, (
        f"{heads} _head calls for {events} events "
        f"({heads / events:.2f} per event, budget {HEAD_PER_EVENT})")
