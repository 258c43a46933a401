"""SimTransport behaviour across the two wire modes.

The protocol trajectory (who connects to whom, when) must be identical in
both modes — sizes feed byte accounting, not latency — while the byte
accounting itself switches from paper constants to encoded lengths.
"""

import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.messages import (
    CtmReply,
    CtmRequest,
    LinkReply,
    LinkRequest,
    PingRequest,
    RoutedPacket,
)
from repro.brunet.uri import Uri
from repro.ipop.ippacket import IcmpEcho
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.phys import Internet, Site
from repro.sim import Simulator
from repro.transport.sim import SimTransport
from repro.wire import UDP_IP_OVERHEAD, decode, encode


def _build_overlay(mode: str, n: int = 8, seed: int = 11, until: float = 60.0):
    sim = Simulator(seed=seed, trace=True)
    net = Internet(sim)
    site = Site(net, "pub")
    rng = sim.rng.stream("overlay")
    cfg = BrunetConfig(wire_mode=mode)
    boot = None
    nodes = []
    for i in range(n):
        h = site.add_host(f"h{i}")
        node = BrunetNode(sim, h, random_address(rng), cfg, name=f"n{i}")
        node.start([boot] if boot else [])
        if boot is None:
            boot = Uri.udp(h.ip, node.port)
        nodes.append(node)
    sim.run(until=until)
    return sim, net, nodes


@pytest.mark.parametrize("mode", ["reference", "codec"])
def test_overlay_forms_in_every_wire_mode(mode):
    sim, net, nodes = _build_overlay(mode)
    assert all(n.in_ring for n in nodes)
    assert net.drops.get("unroutable", 0) == 0


def test_trajectory_identical_across_modes():
    """Same seed → same event trace regardless of wire mode: byte
    accounting must never leak into protocol behaviour."""
    def fingerprint(mode):
        sim, _, nodes = _build_overlay(mode)
        trace = [(cat, t, repr(sorted(d.items())))
                 for cat, recs in sorted(sim.tracer.records.items())
                 for t, d in recs]
        return trace, [n.joined_at for n in nodes]
    assert fingerprint("codec") == fingerprint("reference")


def test_codec_mode_carries_bytes_on_the_wire():
    sim, net, nodes = _build_overlay("codec", n=2, until=10.0)
    # spy on the next datagram: payload must be encoded bytes
    seen = []
    orig_send = net.send

    def spy(src_host, dgram):
        seen.append(dgram.payload)
        orig_send(src_host, dgram)

    net.send = spy
    for conn in nodes[0].table.all():
        # stale enough for a keep-alive ping, fresh enough to dodge the
        # liveness-timeout backstop
        conn.last_heard = sim.now - 20.0
    nodes[0]._ping_tick()
    sim.run(until=sim.now + 1.0)
    assert seen and all(isinstance(p, bytes) for p in seen)


def test_codec_mode_charges_encoded_length():
    sim = Simulator(seed=1, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    host = site.add_host("a")
    peer = site.add_host("b")
    got = []
    peer.bind_udp(7000, lambda payload, src, size: got.append((payload, size)))
    t = SimTransport(sim, host, 6000, wire_mode="codec", name="a")
    t.open(lambda *a: None)
    msg = PingRequest(5, random_address(sim.rng.stream("x")))
    t.send(peer.sockets[7000].endpoint, msg, size_hint=96)
    sim.run()
    assert len(got) == 1
    payload, size = got[0]
    assert decode(payload) == msg  # codec mode: real bytes cross the wire
    assert size == len(encode(msg)) + UDP_IP_OVERHEAD
    assert size != 96  # the paper-constant hint is ignored


def test_measured_mode_is_gone():
    sim = Simulator(seed=1, trace=False)
    host = Site(Internet(sim), "pub").add_host("a")
    with pytest.raises(ValueError, match="unknown wire_mode"):
        SimTransport(sim, host, 6000, wire_mode="measured")


def test_reference_mode_charges_paper_constant():
    from repro.phys.packet import HEADER_BYTES
    sim = Simulator(seed=1, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    host = site.add_host("a")
    peer = site.add_host("b")
    got = []
    peer.bind_udp(7000, lambda payload, src, size: got.append(size))
    t = SimTransport(sim, host, 6000, wire_mode="reference", name="a")
    t.open(lambda *a: None)
    t.send(peer.sockets[7000].endpoint, PingRequest(5, addr_for_ip("10.128.0.2")),
           size_hint=96)
    sim.run()
    assert got == [96 + HEADER_BYTES]


def test_codec_mode_counts_decode_errors_and_drops():
    sim = Simulator(seed=1, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    host = site.add_host("a")
    peer = site.add_host("b")
    delivered = []
    t = SimTransport(sim, peer, 7000, wire_mode="codec", name="b")
    t.open(lambda msg, src, size: delivered.append(msg))
    sender = host.bind_udp(6000, lambda *a: None)
    ep = t.local_endpoint
    sender.send(ep, b"\xde\xad\xbe\xef", size=4)          # garbage frame
    sender.send(ep, encode(PingRequest(1, addr_for_ip("10.128.0.2")))[:-2],
                size=10)                                   # truncated frame
    sender.send(ep, encode(PingRequest(2, addr_for_ip("10.128.0.2"))),
                size=10)                                   # valid frame
    sim.run()
    errs = sim.obs.metrics.counter("wire.decode_error", node="b").value
    assert errs == 2
    assert [m.token for m in delivered] == [2]


def test_unknown_conn_type_is_counted_and_dropped_not_raised():
    """Regression: a well-formed frame whose ``conn_type`` is no
    ``ConnectionType`` raised ``ValueError`` out of the node's handlers
    and aborted ``sim.run()``.  Direct frames now fail in the transport's
    decode, routed bodies at local delivery; both are counted."""
    sim = Simulator(seed=1, trace=False)
    site = Site(Internet(sim), "pub")
    me, peer = addr_for_ip("10.128.0.2"), addr_for_ip("10.128.0.3")
    node = BrunetNode(sim, site.add_host("a"), me,
                      BrunetConfig(wire_mode="codec"), name="a")
    node.start([])
    sender = site.add_host("b").bind_udp(6000, lambda *a: None)
    uris = [Uri.udp("150.1.0.9", 6000)]
    ep = node.transport.local_endpoint
    direct = [LinkRequest(1, peer, uris, "bogus"),
              LinkReply(2, peer, uris, uris[0], "bogus")]
    routed = [CtmRequest(3, peer, uris, "bogus"),
              CtmReply(4, peer, uris, "bogus")]
    for msg in direct:
        sender.send(ep, encode(msg), size=10)
    for msg in routed:
        sender.send(ep, encode(RoutedPacket(src=peer, dest=me, payload=msg,
                                            size=80)), size=10)
    sim.run(until=1.0)
    assert len(node.table) == 0 and not node.linker.by_addr
    assert node.stats["body_decode_drop"] == len(routed)
    assert node.stats["delivered"] == 0
    metrics = sim.obs.metrics
    assert metrics.counter("wire.decode_error", node="a").value == 4
    assert metrics.counter("wire.body_decode_drop", node="a").value == 2


def test_codec_mode_preserves_trace_context_across_bytes():
    sim = Simulator(seed=13, trace=False)
    sim.obs.enable_spans()
    net = Internet(sim)
    site = Site(net, "pub")
    cfg = BrunetConfig(wire_mode="codec")
    ips = ["10.128.0.2", "10.128.0.3"]
    nodes, routers = [], []
    boot = None
    for i, ip in enumerate(ips):
        h = site.add_host(f"h{i}")
        node = BrunetNode(sim, h, addr_for_ip(ip), cfg, name=f"n{i}")
        node.start([boot] if boot else [])
        if boot is None:
            boot = Uri.udp(h.ip, node.port)
        nodes.append(node)
        routers.append(IpopRouter(node, ip))
    sim.run(until=30.0)
    assert all(n.in_ring for n in nodes)
    got = []
    routers[0].bind("icmp", 0, lambda pkt: got.append(pkt))
    routers[0].send_ip(ips[1], "icmp", 0, IcmpEcho(1, False, sim.now), 64)
    sim.run(until=sim.now + 5.0)
    assert [p.payload.is_reply for p in got] == [True]
    spans = sim.obs.spans
    ip_traces = [tid for tid, kind in spans.trace_kind.items() if kind == "ip"]
    assert ip_traces
    # the trace must span both sides of the byte boundary: sender hops
    # (ipop.encap) and receiver delivery recorded under one trace id
    names = {s.name for s in spans.by_trace(ip_traces[0])}
    assert "ipop.encap" in names
    assert "route.deliver" in names
    assert "phys.tx" in names


def test_node_restart_reuses_transport_and_keeps_port():
    sim, net, nodes = _build_overlay("codec", n=3, until=30.0)
    node = nodes[2]
    port = node.port
    node.stop()
    sim.run(until=sim.now + 5.0)
    node.start([Uri.udp(nodes[0].host.ip, nodes[0].port)])
    sim.run(until=sim.now + 30.0)
    assert node.port == port
    assert node.in_ring
