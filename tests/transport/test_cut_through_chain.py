"""A 3-node chain A – B – C: what the byte paths must not change.

B holds links to A and C; A and C hold only their link to B, so every
virtual-IP packet between them visits B in transit.  In codec mode no
node calls ``encode`` or ``decode`` for it: A and C
launch and take delivery of tunnelled IP packets as bytes, B forwards
them as bytes.  With span tracing on, the traced frames take the object
path and the causal tree is the one both wire modes have always
produced.
"""

import asyncio
import itertools

import pytest

from repro.brunet.address import ring_distance
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.node import BrunetNode
from repro.ipop.ippacket import IcmpEcho
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.ipop.vtcp import VtcpStack
from repro.phys import Internet, Site
from repro.sim import Simulator
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport
from repro.wire import codec

PINGS = 25


def _chain_ips() -> list[str]:
    """Three virtual IPs whose middle one is strictly nearer to each end
    than the ends are to each other, so greedy routing relays via B."""
    ips = [f"10.128.7.{h}" for h in range(2, 60)]
    for a, b, c in itertools.permutations(ips[:12], 3):
        xa, xb, xc = (addr_for_ip(ip) for ip in (a, b, c))
        if (ring_distance(xb, xc) < ring_distance(xa, xc)
                and ring_distance(xb, xa) < ring_distance(xc, xa)):
            return [a, b, c]
    raise AssertionError("no chain triple among the candidate IPs")


def _wire_chain(nodes: list[BrunetNode], endpoints: list) -> None:
    """Fixed tables, no overlords: A–B and B–C, nothing else, ever."""
    for node in nodes:
        for overlord in node.overlords:
            overlord.stop()
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
        nodes[i].table.add(Connection(nodes[j].addr, endpoints[j],
                                      ConnectionType.STRUCTURED_NEAR,
                                      nodes[i].sim.now))


def _sim_chain(mode: str, spans: bool = False):
    sim = Simulator(seed=5, trace=False)
    if spans:
        sim.obs.enable_spans()
    site = Site(Internet(sim), "pub")
    ips = _chain_ips()
    nodes, routers = [], []
    for i, ip in enumerate(ips):
        node = BrunetNode(sim, site.add_host(f"n{i}"), addr_for_ip(ip),
                          BrunetConfig(wire_mode=mode), name=f"n{i}")
        node.start([])
        nodes.append(node)
        routers.append(IpopRouter(node, ip))
    _wire_chain(nodes, [n.transport.local_endpoint for n in nodes])
    return sim, ips, nodes, routers


class CodecCalls:
    """Counts ``encode`` / ``decode`` calls: all
    of them (``total``) and those made while the middle node is handling
    a datagram (``calls``; its forwarding send happens inside that
    call)."""

    NAMES = ("encode", "decode")

    def __init__(self, monkeypatch):
        self.inside = False
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.total = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            monkeypatch.setattr(codec, name,
                                self._counted(name, getattr(codec, name)))
        import repro.wire as wire_pkg
        for name in self.NAMES:     # ``wire.decode(...)`` callers
            monkeypatch.setattr(wire_pkg, name, getattr(codec, name))

    def _counted(self, name, fn):
        def counted(*args):
            self.total[name] += 1
            if self.inside:
                self.calls[name] += 1
            return fn(*args)
        return counted

    def around(self, receive):
        def guarded(*args):
            self.inside = True
            try:
                return receive(*args)
            finally:
                self.inside = False
        return guarded


def _assert_relayed(nodes, replies, calls: CodecCalls) -> None:
    a, b, c = nodes
    assert len(replies) == PINGS and all(r.payload.is_reply for r in replies)
    assert calls.calls == dict.fromkeys(CodecCalls.NAMES, 0)
    assert calls.total == dict.fromkeys(CodecCalls.NAMES, 0)   # nor the ends
    assert b.stats["forwarded"] >= 2 * PINGS and b.stats["delivered"] == 0
    for end in (a, c):
        assert end.stats["forwarded"] == 0
        assert end._m_hops.count >= PINGS
        assert end._m_hops.total == 2 * end._m_hops.count   # pkt.hops == 2
    to_a, to_c = b.table.get(a.addr), b.table.get(c.addr)
    assert to_a.packets_received == to_c.packets_sent >= PINGS
    assert to_c.packets_received == to_a.packets_sent >= PINGS


def test_sim_relay_forwards_without_the_codec(monkeypatch):
    sim, ips, nodes, routers = _sim_chain("codec")
    calls = CodecCalls(monkeypatch)
    sock = nodes[1].transport.sock
    sock.dgram_handler = calls.around(sock.dgram_handler)
    opaque = codec.opaque_frames
    replies, messages = [], []
    routers[0].bind("icmp", 0, replies.append)
    for seq in range(PINGS):
        routers[0].send_ip(ips[2], "icmp", 0,
                           IcmpEcho(seq, False, sim.now, 56), 64)
    # a VTCP message rides the same relay, in its typed frame
    server = VtcpStack(routers[2]).socket(9000, on_message=messages.append)
    server.listen()
    client = VtcpStack(routers[0]).socket(9001)
    client.connect(ips[2], 9000)
    client.send(b"\x42" * 1400, 1400)
    sim.run(until=sim.now + 5.0)
    assert messages == [b"\x42" * 1400]
    assert codec.opaque_frames == opaque
    _assert_relayed(nodes, replies, calls)
    assert sim.obs.metrics.counter("wire.decode_error", node="n1").value == 0


def test_live_relay_forwards_without_the_codec(monkeypatch):
    async def scenario():
        kernel = RealtimeKernel(seed=5)
        ips = _chain_ips()
        transports = [await UdpTransport.create(kernel, "127.0.0.1", 0,
                                                name=f"n{i}")
                      for i in range(3)]
        nodes = [BrunetNode(kernel, None, addr_for_ip(ip),
                            BrunetConfig(wire_mode="codec"), transport=t,
                            name=t.name)
                 for ip, t in zip(ips, transports)]
        routers = [IpopRouter(n, ip) for n, ip in zip(nodes, ips)]
        try:
            for node in nodes:
                node.start([])
            _wire_chain(nodes, [t.local_endpoint for t in transports])
            calls = CodecCalls(monkeypatch)
            transports[1]._on_datagram = calls.around(
                transports[1]._on_datagram)
            replies = []
            done = asyncio.get_running_loop().create_future()

            def on_reply(pkt):
                replies.append(pkt)
                if len(replies) == PINGS:
                    done.set_result(None)

            routers[0].bind("icmp", 0, on_reply)
            for seq in range(PINGS):
                routers[0].send_ip(ips[2], "icmp", 0,
                                   IcmpEcho(seq, False, 0.0, 56), 64)
            await asyncio.wait_for(done, timeout=10.0)
            relay = transports[1]
            assert relay.sent == relay.received == 2 * PINGS
            assert kernel.obs.metrics.counter("wire.decode_error",
                                              node="n1").value == 0
            _assert_relayed(nodes, replies, calls)
        finally:
            for node in nodes:
                node.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("mode", ["reference", "codec"])
def test_traced_packet_keeps_its_span_tree(mode):
    sim, ips, nodes, routers = _sim_chain(mode, spans=True)
    got = []
    routers[2].bind("udp", 7, got.append)
    routers[0].send_ip(ips[2], "udp", 7, "hello", 64)
    sim.run(until=sim.now + 5.0)
    assert [p.payload for p in got] == ["hello"]
    spans = sim.obs.spans
    (tid,) = [t for t, kind in spans.trace_kind.items() if kind == "ip"]
    assert [(depth, s.name, s.node) for depth, s in spans.tree(tid)] == [
        (0, "ip.packet", "n0"), (1, "ipop.encap", "n0"),
        (2, "route.hop", "n0"), (3, "phys.tx", "n0"),
        (4, "route.hop", "n1"), (5, "phys.tx", "n1"),
        (6, "route.deliver", "n2")]
    # traced frames are forwarded as objects, so the relay's hop span exists
    assert nodes[1].stats["forwarded"] == 1
