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
    LinkError,
    LinkReply,
    LinkRequest,
    PingReply,
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
from repro.wire import UDP_IP_OVERHEAD, codec, decode, encode

from tests.wire.test_codec_roundtrip import GADGET_HITS, reserved_frames


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
        # silent for longer than ping_interval (15 s): due a keep-alive
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
    """Every datagram is counted as received and reaches the node as
    bytes; the node counts a garbage or truncated frame once on
    ``wire.decode_error`` and dispatches only the valid one."""
    sim = Simulator(seed=1, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    host = site.add_host("a")
    peer = site.add_host("b")
    delivered = []
    node = BrunetNode(sim, peer, addr_for_ip("10.128.0.3"),
                      BrunetConfig(wire_mode="codec"), port=7000, name="b")
    node.start([])
    node.linker.handle_error = lambda msg, src: delivered.append(msg)
    sender = host.bind_udp(6000, lambda *a: None)
    ep = node.transport.local_endpoint
    frames = [b"\xde\xad\xbe\xef",                         # garbage frame
              encode(LinkError(1, addr_for_ip("10.128.0.2"),
                               "busy"))[:-2],              # truncated frame
              encode(LinkError(2, addr_for_ip("10.128.0.2"), "busy"))]
    for frame in frames:
        sender.send(ep, frame, size=10)
    sim.run(until=1.0)
    metrics = sim.obs.metrics
    assert metrics.counter("wire.decode_error", node="b").value == 2
    assert [m.token for m in delivered] == [2]
    assert metrics.counter("wire.rx_bytes", node="b").value == sum(
        map(len, frames))


def test_codec_mode_hands_keepalive_frames_over_as_bytes(monkeypatch):
    """An untraced datagram reaches the handler as the bytes that crossed
    the wire, whatever its tag, counted as received: keep-alives, a
    control frame and a truncated one alike (``decode`` fails the test if
    the transport calls it); the node reads them itself."""
    sim = Simulator(seed=1, trace=False)
    site = Site(Internet(sim), "pub")
    delivered = []
    t = SimTransport(sim, site.add_host("b"), 7000, wire_mode="codec",
                     name="b")
    t.open(lambda msg, src, size: delivered.append((msg, size)))
    sender = SimTransport(sim, site.add_host("a"), 6000, wire_mode="codec",
                          name="a")
    sender.open(lambda *a: None)
    peer = addr_for_ip("10.128.0.2")
    error = encode(LinkError(4, peer, "busy"))
    frames = [encode(PingRequest(1, peer)),
              encode(PingReply(2, peer, Uri.udp("150.1.0.9", 6000), False)),
              error, error[:-2]]

    def no_decode(buf):
        raise AssertionError("the transport decoded a datagram")

    monkeypatch.setattr(codec, "decode", no_decode)
    for frame in frames:
        sender.send_frame(t.local_endpoint, frame)
    sim.run()
    assert sorted(msg for msg, _ in delivered) == sorted(frames)
    assert all(type(msg) is bytes and size == len(msg) + UDP_IP_OVERHEAD
               for msg, size in delivered)
    metrics = sim.obs.metrics
    assert metrics.counter("wire.rx_bytes", node="b").value == sum(
        map(len, frames))
    # send_frame counts and charges a frame exactly as send does
    assert metrics.counter("wire.tx_bytes", node="a").value == sum(
        map(len, frames))
    assert sender.sock.sent == len(frames)
    sender.send(t.local_endpoint, LinkError(3, peer, "busy"))
    assert sender.sock.sent == len(frames) + 1
    assert metrics.counter("wire.tx_bytes", node="a").value == sum(
        map(len, frames)) + len(encode(LinkError(3, peer, "busy")))


def test_a_malformed_keepalive_is_counted_by_the_node_and_not_answered():
    """The node twin of the transport's decode-error test: keep-alive
    frames cross as bytes, so a truncated one or one with a trailing
    byte fails the node's own view and decode, once each, on the same
    ``wire.decode_error`` series, and gets no reply."""
    sim = Simulator(seed=1, trace=False)
    site = Site(Internet(sim), "pub")
    node = BrunetNode(sim, site.add_host("a"), addr_for_ip("10.128.0.2"),
                      BrunetConfig(wire_mode="codec"), name="a")
    node.start([])
    replies = []
    sender = site.add_host("b").bind_udp(
        6000, lambda payload, src, size: replies.append(payload))
    peer = addr_for_ip("10.128.0.3")
    ping = encode(PingRequest(1, peer))
    pong = encode(PingReply(2, peer, Uri.udp("150.1.0.9", 6000), True))
    metrics = sim.obs.metrics
    for bad in (ping[:-1], ping + b"\x00", pong[:-1], pong + b"\x00"):
        errs = metrics.counter("wire.decode_error", node="a").value
        sender.send(node.transport.local_endpoint, bad, size=len(bad))
        sim.run(until=sim.now + 1.0)
        assert metrics.counter("wire.decode_error", node="a").value \
            == errs + 1
    assert replies == []
    sender.send(node.transport.local_endpoint, ping, size=len(ping))
    sim.run(until=sim.now + 1.0)
    assert [decode(r) for r in replies] == [
        PingReply(1, node.addr, Uri.udp(sender.host.ip, 6000), False)]


def test_unknown_conn_type_is_counted_and_dropped_not_raised():
    """Regression: a well-formed frame whose ``conn_type`` is no
    ``ConnectionType`` raised ``ValueError`` out of the node's handlers
    and aborted ``sim.run()``.  Direct frames now fail in the transport's
    decode, routed ones in the node's; both are counted."""
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
    assert node.stats["delivered"] == 0
    metrics = sim.obs.metrics
    assert metrics.counter("wire.decode_error", node="a").value \
        == len(direct) + len(routed)


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


def test_reserved_tags_are_counted_once_each():
    """A frame with a reserved type tag fails in the transport's decode;
    as a routed body it fails in the node's.  Each counts once, and the
    retired tag 17's pickle gadget never runs."""
    sim = Simulator(seed=1, trace=False)
    site = Site(Internet(sim), "pub")
    me, peer = addr_for_ip("10.128.0.2"), addr_for_ip("10.128.0.3")
    node = BrunetNode(sim, site.add_host("a"), me,
                      BrunetConfig(wire_mode="codec"), name="a")
    node.start([])
    sender = site.add_host("b").bind_udp(6000, lambda *a: None)
    bare, routed = reserved_frames(peer, me)
    for frame in bare + routed:
        sender.send(node.transport.local_endpoint, frame, size=len(frame))
    sim.run(until=1.0)
    metrics = sim.obs.metrics
    assert metrics.counter("wire.decode_error", node="a").value \
        == len(bare) + len(routed)
    assert node.stats["delivered"] == 0
    assert GADGET_HITS == []
