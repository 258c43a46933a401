"""Transit cut-through ≡ object path.

A node that receives a routed frame as bytes either patches and resends
it (``wire.transit_view`` + ``wire.patch_forward`` +
``Transport.send_frame``) or decodes it and routes the object.  Both must
be indistinguishable from outside: two identical nodes with the same
fixed table get the same frames — one as bytes (the byte path decides),
one through ``decode_lazy`` → ``_on_datagram`` → ``route`` →
``send_over`` → ``encode`` (the only path before the cut-through) — and
must emit the same bytes to the same endpoints and end with equal
connection counters, ``node.stats``, trace counters and metrics.

The hostile half feeds every truncation and single-byte corruption of
those frames to both: the byte path may only forward what the object
path forwards, byte for byte, and must hand everything else over —
never raise, never invent a forward, count the same decode errors.
"""

import random

import pytest

from repro import wire
from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.messages import CtmRequest, IpEncap, RoutedPacket
from repro.brunet.node import BrunetNode
from repro.brunet.uri import Uri
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.ipop.vtcp import Segment
from repro.obs.spans import TraceRef
from repro.phys.endpoints import Endpoint
from repro.sim import Simulator
from repro.transport.base import Transport

TTL = 24
SRC = Endpoint("192.0.2.9", 9)


class Recorder(Transport):
    """Keeps what the node sends, as (endpoint, frame bytes)."""

    def __init__(self):
        self.out: list[tuple[Endpoint, bytes]] = []
        self.frames_resent = 0

    @property
    def local_endpoint(self) -> Endpoint:
        return Endpoint("192.0.2.1", 4000)

    def open(self, handler) -> Endpoint:
        return self.local_endpoint

    def send(self, dst, msg, size_hint=0) -> None:
        self.out.append((dst, wire.encode(msg)))

    def send_frame(self, dst, frame) -> None:
        self.frames_resent += 1
        self.out.append((dst, frame))

    def close(self) -> None:
        pass


def _fixed_node(addrs: list[BrunetAddress]) -> BrunetNode:
    """A started node at ``addrs[0]`` linked to the rest, overlords off."""
    sim = Simulator(seed=3, trace=False)
    node = BrunetNode(sim, None, addrs[0],
                      BrunetConfig(wire_mode="codec", ttl=TTL),
                      transport=Recorder(), name="relay")
    node.start([])
    for overlord in node.overlords:
        overlord.stop()
    kinds = [ConnectionType.STRUCTURED_NEAR, ConnectionType.STRUCTURED_NEAR,
             ConnectionType.STRUCTURED_FAR, ConnectionType.SHORTCUT,
             ConnectionType.LEAF]
    for i, peer in enumerate(addrs[1:]):
        conn = Connection(peer, Endpoint("192.0.2.%d" % (10 + i), 4000 + i),
                          kinds[i % len(kinds)], 0.0)
        conn.unanswered_pings = 2      # heard_from must be seen to reset it
        node.table.add(conn)
    return node


def _snapshot(node: BrunetNode) -> dict:
    metrics = node.sim.obs.metrics
    return {
        "conns": sorted(
            (int(c.peer_addr), c.packets_sent, c.packets_received,
             c.bytes_sent, c.last_heard, c.unanswered_pings)
            for c in node.table.all()),
        "stats": dict(node.stats),
        "trace": dict(node.sim.tracer.counters),
        "metrics": {name: metrics.counter(name, node=node.name).value
                    for name in ("brunet.route.sent", "brunet.route.forwarded",
                                 "brunet.route.delivered",
                                 "wire.decode_error",
                                 "wire.body_decode_drop")},
        "hops": (node._m_hops.count, node._m_hops.total),
    }


def _object_path(node: BrunetNode, buf: bytes) -> None:
    """What a codec transport and the node did with every frame before
    the cut-through existed."""
    try:
        msg = wire.decode_lazy(buf)
    except wire.DecodeError:
        node._m_decode_err.inc()
        return
    node._on_datagram(msg, SRC, len(buf) + wire.UDP_IP_OVERHEAD)


class Pair:
    """The same node twice: ``byte`` gets frames as a codec transport
    now delivers them, ``obj`` through the object path."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.addrs = [BrunetAddress(rng.randrange(ADDRESS_SPACE))
                      for _ in range(9)]
        self.byte = _fixed_node(self.addrs)
        self.obj = _fixed_node(self.addrs)

    def feed(self, buf: bytes) -> int:
        """Deliver ``buf`` to both nodes, require identical behaviour;
        returns how many frames the byte path resent."""
        before = self.byte.transport.frames_resent
        self.byte.sim.now = self.obj.sim.now = self.byte.sim.now + 0.25
        # the object path is not hostile-input safe at local delivery (a
        # corrupt CtmRequest.conn_type raises ValueError out of
        # _handle_ctm_request): whatever it raises, the byte path must too
        raised = []
        for deliver in (
                lambda: self.byte._on_datagram(
                    buf, SRC, len(buf) + wire.UDP_IP_OVERHEAD),
                lambda: _object_path(self.obj, buf)):
            try:
                deliver()
                raised.append(None)
            except Exception as exc:
                raised.append(repr(exc))
        assert raised[0] == raised[1]
        assert self.byte.transport.out == self.obj.transport.out
        assert _snapshot(self.byte) == _snapshot(self.obj)
        self.byte.transport.out.clear()
        self.obj.transport.out.clear()
        return self.byte.transport.frames_resent - before


def _payload(rng: random.Random):
    vip = lambda body, proto: VirtualIpPacket(          # noqa: E731
        "10.128.0.2", "10.128.0.3", proto, 5001, body, 84)
    return rng.choice([
        None,
        IpEncap(vip(IcmpEcho(rng.randrange(1 << 31), False, 1.5, 56),
                    "icmp"), 84),
        IpEncap(vip((5000, Segment(rng.randrange(1 << 40), 7, "DATA",
                                   rng.randbytes(1400), 1440)), "vtcp"),
                1440),
        IpEncap(vip((5001, Segment(3, rng.randrange(1 << 40), "ACK")),
                    "vtcp"), 40),
        CtmRequest(rng.randrange(1, 1 << 40),
                   BrunetAddress(rng.randrange(ADDRESS_SPACE)),
                   [Uri.udp("10.0.0.2", 14001)], "structured.near",
                   fanout=rng.randrange(2)),
    ])


def _frame(rng: random.Random, pair: Pair, traced: bool = False) -> bytes:
    me, peers = pair.addrs[0], pair.addrs[1:]
    anywhere = lambda: BrunetAddress(rng.randrange(ADDRESS_SPACE))  # noqa: E731
    dest = rng.choice([me, rng.choice(peers), anywhere(), anywhere(),
                       rng.choice(peers).offset(rng.choice([-3, 5]))])
    via = [anywhere() for _ in range(rng.randrange(0, 7))]
    if via and rng.random() < 0.7:
        via[-1] = rng.choice(peers)        # a previous hop we hold a link to
    pkt = RoutedPacket(
        src=rng.choice([anywhere(), anywhere(), anywhere(), me]), dest=dest,
        payload=_payload(rng), size=rng.randrange(0, 1500),
        exact=rng.random() < 0.6, exclude_dest_link=rng.random() < 0.3,
        # "sideways" is no approach code: it rides as a string, which the
        # byte path must leave to the object path
        approach=rng.choice([None, None, None, "left", "right", "sideways"]),
        ttl=TTL,
        hops=rng.choice([0, 1, TTL - 1, TTL]), via=via,
        trace=TraceRef(rng.randrange(1 << 60), 5) if traced else None)
    return wire.encode(pkt)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_byte_path_matches_object_path_on_random_frames(seed):
    rng = random.Random(seed)
    pair = Pair(seed)
    resent = sum(pair.feed(_frame(rng, pair)) for _ in range(600))
    # both sides of the selection are exercised, and often
    assert 150 < resent < 550
    assert pair.byte.stats["delivered"] > 20
    assert pair.byte.stats["ttl_drop"] > 20


def test_traced_frames_take_the_object_path():
    rng = random.Random(7)
    pair = Pair(7)
    assert sum(pair.feed(_frame(rng, pair, traced=True))
               for _ in range(200)) == 0
    assert pair.byte.stats["forwarded"] > 20     # forwarded, as objects


def test_cut_through_output_is_what_encode_would_send():
    """The patch primitive on its own: for every frame the view accepts,
    the patched bytes equal a re-encode of the decoded packet stamped as
    ``send_over`` stamps it."""
    rng = random.Random(8)
    pair = Pair(8)
    me = pair.addrs[0]
    mine = wire.address_bytes(me)
    accepted = 0
    for _ in range(400):
        buf = _frame(rng, pair)
        view = wire.transit_view(buf, mine)
        if view is None:
            continue
        accepted += 1
        pkt = wire.decode_lazy(buf)
        assert view == (pkt.dest, pkt.exclude_dest_link, pkt.approach,
                        pkt.size, pkt.via[-1] if pkt.via else None,
                        pkt.hops, len(pkt.via))
        pkt.hops += 1
        pkt.via.append(me)
        assert wire.patch_forward(buf, view, mine) == wire.encode(pkt)
    assert accepted > 100


def test_string_approach_is_never_patched_at_the_coded_offsets():
    """An approach string shifts everything after it; only a frame long
    enough to survive the via-length check at the coded offsets shows
    that the view rejects it on the approach code itself."""
    pair = Pair(10)
    me, peer = pair.addrs[0], pair.addrs[1]
    pkt = RoutedPacket(src=pair.addrs[2], dest=peer, payload=bytes(60_000),
                       size=10, approach="sideways", ttl=TTL)
    buf = wire.encode(pkt)
    assert wire.transit_view(buf, wire.address_bytes(me)) is None
    assert pair.feed(buf) == 0
    assert pair.byte.stats["forwarded"] == 1


def test_hostile_every_truncation_and_single_byte_corruption():
    rng = random.Random(9)
    pair = Pair(9)
    frames = []
    while len(frames) < 14:
        buf = _frame(rng, pair)
        # keep the corpus to frames the byte path would forward intact,
        # the ones a corruption can push either way
        if wire.transit_view(
                buf, wire.address_bytes(pair.addrs[0])) is not None:
            frames.append(buf)
    assert any(len(f) > 1400 for f in frames)
    resent = fed = 0
    for buf in frames:
        for cut in range(len(buf)):
            resent += pair.feed(buf[:cut])
            fed += 1
        # every byte of the envelope and via list, and the body sampled
        body = len(buf) - 200
        offsets = [o for o in range(len(buf)) if o < 200 or o > body
                   or o % 7 == 0]
        for off in offsets:
            for value in {buf[off] ^ 0x01, buf[off] ^ 0xFF,
                          rng.randrange(256)} - {buf[off]}:
                corrupt = bytearray(buf)
                corrupt[off] = value
                resent += pair.feed(bytes(corrupt))
                fed += 1
    errors = pair.byte.sim.obs.metrics.counter("wire.decode_error",
                                               node="relay").value
    assert errors > 1000            # malformed frames reached decode_lazy
    assert 0 < resent < fed         # and harmless corruptions cut through
