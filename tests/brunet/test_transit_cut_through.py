"""Byte paths ≡ object path: origin, transit and delivery.

A node on a frame-carrying transport handles the common routed frames
as bytes: it launches an untraced ``exact`` packet with
``wire.encode_origin``, forwards a transit frame with
``wire.transit_view`` + ``wire.patch_forward``, and takes delivery of a
tunnelled IP packet through ``wire.deliver_view`` — each time through
``Transport.send_frame`` or straight into ``ip_handler``, with no
``RoutedPacket``.  Everything else, and every node on a transport that
carries objects, takes the object path: ``decode_lazy`` →
``_on_datagram`` → ``route`` → ``send_over`` / ``_deliver`` →
``encode``, the only path there was before.

Both must be indistinguishable from outside.  Two identical nodes with
the same fixed table get the same input — ``byte`` as a codec transport
delivers it and with byte paths available, ``obj`` through the object
path only — and must emit the same bytes to the same endpoints, make
the same handler calls with equal payloads, and end with equal
connection counters, ``node.stats``, trace counters, metrics and
transport counters.

The hostile half feeds every truncation and single-byte corruption of
frames the byte paths accept to both: a byte path may only forward or
deliver what the object path forwards or delivers, and must hand
everything else over — never raise, never invent a forward or a
delivery, count the same decode errors.
"""

import random
from collections import Counter

import pytest

from repro import wire
from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.messages import (
    CtmReply,
    CtmRequest,
    Forward,
    IpEncap,
    RoutedPacket,
)
from repro.brunet.node import BrunetNode
from repro.brunet.uri import Uri
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.ipop.vtcp import Segment
from repro.obs.spans import TraceRef
from repro.phys.endpoints import Endpoint
from repro.sim import Simulator
from repro.transport.udp import UdpTransport

from tests.conftest import stub_socket

TTL = 24
SRC = Endpoint("192.0.2.9", 9)
KINDS = [ConnectionType.STRUCTURED_NEAR, ConnectionType.STRUCTURED_NEAR,
         ConnectionType.STRUCTURED_FAR, ConnectionType.SHORTCUT,
         ConnectionType.LEAF]


class Note:
    """A routed payload of a type the codec does not know (it rides an
    OPAQUE frame), delivered through ``payload_handlers`` like the
    ledger's ``Probe``."""

    def __init__(self, ident: int):
        self.ident = ident

    def __eq__(self, other) -> bool:
        return type(other) is Note and other.ident == self.ident


class Recorder(UdpTransport):
    """The live transport over a stubbed socket: its own ``send`` /
    ``send_frame`` accounting, the datagrams kept as (frame bytes,
    address).  ``carries_frames=False`` makes its node route objects."""

    def __init__(self, sim: Simulator, name: str, carries_frames: bool):
        super().__init__(sim, name=name)
        #: every datagram sent, as (frame, (ip, port)); outlives close()
        self.out = stub_socket(self, "192.0.2.1", 4000).out
        self.carries_frames = carries_frames
        self.encoded = 0

    def send(self, dst, msg, size_hint=0) -> None:
        self.encoded += 1
        super().send(dst, msg, size_hint)

    @property
    def frames_sent(self) -> int:
        """Datagrams the node sent as bytes, not through ``send``."""
        return self.sent - self.encoded


def _fixed_node(addrs: list[BrunetAddress], carries_frames: bool,
                calls: list) -> BrunetNode:
    """A started node at ``addrs[0]`` linked to the rest, overlords off,
    every handler call appended to ``calls``."""
    sim = Simulator(seed=3, trace=False)
    node = BrunetNode(sim, None, addrs[0],
                      BrunetConfig(wire_mode="codec", ttl=TTL),
                      transport=Recorder(sim, "relay", carries_frames),
                      name="relay")
    node.start([])
    for overlord in node.overlords:
        overlord.stop()
    for i, peer in enumerate(addrs[1:]):
        conn = Connection(peer, Endpoint("192.0.2.%d" % (10 + i), 4000 + i),
                          KINDS[i % len(KINDS)], 0.0)
        conn.unanswered_pings = 2      # heard_from must be seen to reset it
        node.table.add(conn)
    node.ip_handler = lambda encap: calls.append(("ip", encap))
    node.payload_handlers[Note] = lambda pkt: calls.append(
        ("note", pkt.src, pkt.dest, pkt.hops, list(pkt.via), pkt.payload))
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
                                 "wire.decode_error", "wire.body_decode_drop",
                                 "wire.tx_bytes", "wire.opaque_frames")},
        "hops": (node._m_hops.count, node._m_hops.total),
        "sent": node.transport.sent,
    }


def _object_path(node: BrunetNode, buf: bytes) -> None:
    """What a codec transport and the node did with every frame before
    the byte paths existed."""
    try:
        msg = wire.decode_lazy(buf)
    except wire.DecodeError:
        node._m_decode_err.inc()
        return
    node._on_datagram(msg, SRC, len(buf) + wire.UDP_IP_OVERHEAD)


class Pair:
    """The same node twice: ``byte`` has the byte paths, ``obj`` only
    the object path."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.addrs = [BrunetAddress(rng.randrange(ADDRESS_SPACE))
                      for _ in range(9)]
        self.byte_calls: list = []
        self.obj_calls: list = []
        #: handler calls made so far, by kind ("ip", "note")
        self.handled: Counter = Counter()
        self.byte = _fixed_node(self.addrs, True, self.byte_calls)
        self.obj = _fixed_node(self.addrs, False, self.obj_calls)

    def both(self, act) -> int:
        """Run ``act(node)`` on both nodes, require identical behaviour;
        returns how many datagrams ``byte`` sent as bytes."""
        before = self.byte.transport.frames_sent
        self.byte.sim.now = self.obj.sim.now = self.byte.sim.now + 0.25
        act(self.byte)
        act(self.obj)
        assert self.byte.transport.out == self.obj.transport.out
        assert self.byte_calls == self.obj_calls
        assert _snapshot(self.byte) == _snapshot(self.obj)
        assert self.obj.transport.frames_sent == 0
        self.handled.update(call[0] for call in self.byte_calls)
        for seen in (self.byte.transport.out, self.obj.transport.out,
                     self.byte_calls, self.obj_calls):
            seen.clear()
        return self.byte.transport.frames_sent - before

    def feed(self, buf: bytes) -> int:
        """Deliver ``buf`` to both nodes, each by its own path."""
        def deliver(node: BrunetNode) -> None:
            if node is self.byte:
                node._on_datagram(buf, SRC, len(buf) + wire.UDP_IP_OVERHEAD)
            else:
                _object_path(node, buf)
        return self.both(deliver)

    def send(self, dest, payload, size, **kwargs) -> int:
        """``send_routed`` on both nodes."""
        return self.both(
            lambda node: node.send_routed(dest, payload, size, **kwargs))


def _encap(rng: random.Random) -> IpEncap:
    vip = lambda body, proto, size: VirtualIpPacket(      # noqa: E731
        "10.128.0.2", "10.128.0.3", proto, 5001, body, size)
    return rng.choice([
        IpEncap(vip(IcmpEcho(rng.randrange(1 << 31), False, 1.5, 56),
                    "icmp", 84), 84),
        IpEncap(vip((5000, Segment(rng.randrange(1 << 40), 7, "DATA",
                                   rng.randbytes(1400), 1440)), "vtcp", 1440),
                1440),
        IpEncap(vip((5001, Segment(3, rng.randrange(1 << 40), "ACK")),
                    "vtcp", 40), 40),
    ])


def _payload(rng: random.Random):
    addr = lambda: BrunetAddress(rng.randrange(ADDRESS_SPACE))   # noqa: E731
    uris = [Uri.udp("10.0.0.2", 14001)]
    return rng.choice([
        None,
        _encap(rng), _encap(rng), _encap(rng),
        CtmRequest(rng.randrange(1, 1 << 40), addr(), uris,
                   "structured.near", fanout=rng.randrange(2)),
        Forward(addr(), CtmReply(rng.randrange(1, 1 << 40), addr(), uris,
                                 "shortcut"), 80),
        Note(rng.randrange(1 << 20)),
        # a tunnelled packet the IPOP layer would call misdelivered, and
        # one whose body falls back to an OPAQUE pickle
        IpEncap("not a packet", 12),
        IpEncap(VirtualIpPacket("10.128.0.2", "10.128.0.3", "udp", 7,
                                {"rpc": [1, 2.5]}, 64), 64),
    ])


def _frame(rng: random.Random, pair: Pair, traced: bool = False,
           payload=None) -> bytes:
    me, peers = pair.addrs[0], pair.addrs[1:]
    anywhere = lambda: BrunetAddress(rng.randrange(ADDRESS_SPACE))  # noqa: E731
    dest = rng.choice([me, me, rng.choice(peers), anywhere(), anywhere(),
                       rng.choice(peers).offset(rng.choice([-3, 5]))])
    via = [anywhere() for _ in range(rng.randrange(0, 7))]
    if via and rng.random() < 0.7:
        via[-1] = rng.choice(peers)        # a previous hop we hold a link to
    pkt = RoutedPacket(
        src=rng.choice([anywhere(), anywhere(), anywhere(), me]), dest=dest,
        payload=_payload(rng) if payload is None else payload,
        size=rng.randrange(0, 1500),
        exact=rng.random() < 0.6, exclude_dest_link=rng.random() < 0.3,
        # "sideways" is no approach code: it rides as a string, which the
        # byte paths must leave to the object path
        approach=rng.choice([None, None, None, "left", "right", "sideways"]),
        ttl=TTL,
        hops=rng.choice([0, 1, TTL - 1, TTL]), via=via,
        trace=TraceRef(rng.randrange(1 << 60), 5) if traced else None)
    return wire.encode(pkt)


@pytest.fixture
def delivered_as_bytes(monkeypatch) -> list:
    """Every non-None ``wire.deliver_view`` result, as the node got it."""
    taken = []
    real = wire.deliver_view

    def counted(buf, mine):
        view = real(buf, mine)
        if view is not None:
            taken.append(view)
        return view

    monkeypatch.setattr(wire, "deliver_view", counted)
    return taken


# ---------------------------------------------------------------------------
# transit and delivery: frames in
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [101, 102, 103])
def test_byte_path_matches_object_path_on_random_frames(seed,
                                                        delivered_as_bytes):
    rng = random.Random(seed)
    pair = Pair(seed)
    sent = sum(pair.feed(_frame(rng, pair)) for _ in range(600))
    # every side of every selection is exercised, and often: forwards
    # and replies as bytes, deliveries as bytes, and the object path's
    # deliveries, drops and handler calls
    assert 150 < sent < 550
    assert len(delivered_as_bytes) > 30
    stats = pair.byte.stats
    assert stats["delivered"] > len(delivered_as_bytes) + 30
    assert stats["ttl_drop"] > 20 and stats["ip_misdelivered"] == 0
    assert pair.handled["ip"] > len(delivered_as_bytes)
    assert pair.handled["note"] > 3


def test_delivery_without_an_ip_handler_counts_ip_drop(delivered_as_bytes):
    rng = random.Random(11)
    pair = Pair(11)
    pair.byte.ip_handler = pair.obj.ip_handler = None
    for _ in range(300):
        pair.feed(_frame(rng, pair, payload=_encap(rng)))
    assert delivered_as_bytes == [] and not pair.handled
    assert pair.byte.stats["ip_drop"] > 30


def test_traced_frames_take_the_object_path(delivered_as_bytes):
    rng = random.Random(7)
    pair = Pair(7)
    assert sum(pair.feed(_frame(rng, pair, traced=True, payload=_encap(rng)))
               for _ in range(200)) == 0
    assert delivered_as_bytes == []
    assert pair.byte.stats["forwarded"] > 20     # forwarded, as objects
    assert pair.byte.stats["delivered"] > 20     # delivered, as objects


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
        assert wire.deliver_view(buf, mine) is None
        pkt = wire.decode_lazy(buf)
        assert view == (pkt.dest, pkt.exclude_dest_link, pkt.approach,
                        pkt.size, pkt.via[-1] if pkt.via else None,
                        pkt.hops, len(pkt.via))
        pkt.hops += 1
        pkt.via.append(me)
        assert wire.patch_forward(buf, view, mine) == wire.encode(pkt)
    assert accepted > 100


def test_deliver_view_is_what_decode_would_deliver():
    """The delivery primitive on its own: it accepts exactly the frames
    that decode to a plain, live ``IpEncap`` packet for this node, and
    returns what the decoded packet holds."""
    rng = random.Random(12)
    pair = Pair(12)
    me = pair.addrs[0]
    mine = wire.address_bytes(me)
    accepted = 0
    for _ in range(2000):
        buf = _frame(rng, pair)
        pkt = wire.decode(buf)
        plain = (pkt.dest == me and not pkt.exclude_dest_link
                 and pkt.approach != "sideways" and pkt.hops < pkt.ttl
                 and type(pkt.payload) is IpEncap)
        view = wire.deliver_view(buf, mine)
        assert (view is not None) == plain
        if plain:
            accepted += 1
            assert wire.transit_view(buf, mine) is None
            assert view == (pkt.via[-1] if pkt.via else None, pkt.hops,
                            pkt.payload)
            # a flag byte the encoder never writes: delivery would not
            # differ, but such a frame is not plain
            odd = bytearray(buf)
            odd[wire.codec._O_EXCLUDE - 1] = 2
            assert wire.decode(bytes(odd)).payload == pkt.payload
            assert wire.deliver_view(bytes(odd), mine) is None
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


def test_string_approach_is_never_delivered_at_the_coded_offsets(
        delivered_as_bytes):
    """The same for delivery: behind an approach string the coded offsets
    read a via count out of the string and land inside the payload, which
    here is a blob built to hold — exactly there — the tail of an
    ``IpEncap`` frame.  Only the approach code itself says no."""
    codec = wire.codec
    pair = Pair(10)
    me = pair.addrs[0]
    pkt = RoutedPacket(src=pair.addrs[2], dest=me, payload=b"", size=10,
                       approach="sideways", ttl=TTL)
    probe = wire.encode(pkt)
    count = (probe[codec._O_COUNT] << 8) | probe[codec._O_COUNT + 1]
    end = codec._O_VIA + count * codec.ADDRESS_BYTES
    pkt.payload = bytes(end - len(probe)) + wire.encode(IpEncap(None, 0))[1:]
    buf = wire.encode(pkt)
    assert buf[end] == codec.T_IP_ENCAP and len(buf) == end + 6
    assert wire.deliver_view(buf, wire.address_bytes(me)) is None
    assert pair.feed(buf) == 0
    assert delivered_as_bytes == [] and pair.byte.stats["delivered"] == 1


def test_body_nested_deeper_than_the_stack_is_dropped_and_counted(
        delivered_as_bytes):
    pair = Pair(17)
    me = pair.addrs[0]
    head = wire.encode(RoutedPacket(src=pair.addrs[2], dest=me, payload=None,
                                    size=10, ttl=TTL, via=[pair.addrs[1]]))
    nested = wire.encode(IpEncap(None, 0))[1:-1] * 3000 + head[-1:]
    assert pair.feed(head[:-1] + nested) == 0
    assert delivered_as_bytes == [] and not pair.handled
    assert pair.byte.stats["body_decode_drop"] == 1


def _corpus(rng: random.Random, pair: Pair, accepts, count: int) -> list:
    """Frames the byte path ``accepts`` intact — the ones a corruption
    can push either way."""
    mine = wire.address_bytes(pair.addrs[0])
    frames = []
    while len(frames) < count:
        buf = _frame(rng, pair)
        if accepts(buf, mine) is not None:
            frames.append(buf)
    assert any(len(f) > 1400 for f in frames)
    return frames


def _hostile(rng: random.Random, pair: Pair, frames: list) -> tuple:
    """Feed every truncation of ``frames`` and single-byte corruptions
    of every envelope, via-list and body-edge byte (the body sampled);
    returns (frames sent as bytes, frames fed)."""
    sent = fed = 0
    for buf in frames:
        for cut in range(len(buf)):
            sent += pair.feed(buf[:cut])
            fed += 1
        body = len(buf) - 200
        offsets = [o for o in range(len(buf)) if o < 200 or o > body
                   or o % 7 == 0]
        for off in offsets:
            for value in {buf[off] ^ 0x01, buf[off] ^ 0xFF,
                          rng.randrange(256)} - {buf[off]}:
                corrupt = bytearray(buf)
                corrupt[off] = value
                sent += pair.feed(bytes(corrupt))
                fed += 1
    return sent, fed


def test_hostile_every_truncation_and_single_byte_corruption():
    rng = random.Random(9)
    pair = Pair(9)
    sent, fed = _hostile(rng, pair,
                         _corpus(rng, pair, wire.transit_view, 14))
    errors = pair.byte.sim.obs.metrics.counter("wire.decode_error",
                                               node="relay").value
    assert errors > 1000            # malformed frames reached decode_lazy
    assert 0 < sent < fed           # and harmless corruptions cut through


def test_hostile_delivery_every_truncation_and_single_byte_corruption(
        delivered_as_bytes):
    rng = random.Random(13)
    pair = Pair(13)
    _sent, fed = _hostile(rng, pair,
                          _corpus(rng, pair, wire.deliver_view, 10))
    stats = pair.byte.stats
    # malformed bodies reached materialize, malformed envelopes
    # decode_lazy, and harmless corruptions were delivered as bytes
    assert stats["body_decode_drop"] > 500
    assert pair.byte.sim.obs.metrics.counter(
        "wire.decode_error", node="relay").value > stats["body_decode_drop"]
    assert 0 < len(delivered_as_bytes) < stats["delivered"] < fed
    assert stats["ttl_drop"] > 0 and stats["forwarded"] > 0


# ---------------------------------------------------------------------------
# origin: packets out
# ---------------------------------------------------------------------------

def _stamped(pair: Pair, dest, payload, size) -> RoutedPacket:
    me = pair.addrs[0]
    return RoutedPacket(src=me, dest=dest, payload=payload, size=size,
                        exact=True, ttl=TTL, hops=1, via=[me])


def test_encode_origin_is_encode_of_the_stamped_packet():
    rng = random.Random(14)
    pair = Pair(14)
    mine = wire.address_bytes(pair.addrs[0])
    for _ in range(300):
        dest = BrunetAddress(rng.randrange(ADDRESS_SPACE))
        payload, size = _payload(rng), rng.randrange(0, 1 << 32)
        assert (wire.encode_origin(mine, wire.address_bytes(dest), size, TTL,
                                   payload)
                == wire.encode(_stamped(pair, dest, payload, size)))


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_origin_byte_path_matches_object_path(seed):
    rng = random.Random(seed)
    pair = Pair(seed)
    me, peers = pair.addrs[0], pair.addrs[1:]
    anywhere = lambda: BrunetAddress(rng.randrange(ADDRESS_SPACE))  # noqa: E731
    as_bytes = sends = 0
    for round_ in range(400):
        if round_ == 300:
            # no leaf to fall back on: a local minimum is now undeliverable
            leaf = pair.byte.leaf_connection().peer_addr
            pair.both(lambda node: node.table.remove(leaf))
        dest = rng.choice([me, rng.choice(peers), anywhere(), anywhere(),
                           me.offset(rng.choice([-2, 9]))])
        payload, size = _payload(rng), rng.randrange(0, 1500)
        kwargs = rng.choice([{}, {}, {}, {"exact": True}, {"exact": False},
                             {"trace": TraceRef(rng.randrange(1 << 60), 5)}])
        took = pair.send(dest, payload, size, **kwargs)
        sends += 1
        if not isinstance(payload, (CtmRequest, Forward)):
            # (those two, delivered here, make the node send again)
            declines = (dest == me or "trace" in kwargs
                        or kwargs.get("exact") is False)
            assert took <= 1 and not (took and declines)
        as_bytes += took
    stats = pair.byte.stats
    assert 100 < as_bytes < sends - 100     # both sides, often
    assert stats["sent"] > as_bytes         # leaf fallback, inexact, traced
    assert stats["undeliverable"] > 3 and stats["delivered"] > 20
    assert pair.byte.sim.obs.metrics.counter(
        "wire.opaque_frames", node="relay").value > 20


def _link(node: BrunetNode, peer: BrunetAddress) -> None:
    node.table.add(Connection(peer, Endpoint("192.0.2.99", 4099),
                              ConnectionType.STRUCTURED_NEAR, 0.0))


def test_origin_declines_without_ttl_and_when_stopped():
    rng = random.Random(15)
    for stop, ttl in ((False, 0), (True, TTL)):
        pair = Pair(15)
        pair.byte.config = pair.obj.config = BrunetConfig(wire_mode="codec",
                                                          ttl=ttl)
        if stop:
            # stop() empties the table; a link that turns up afterwards
            # must not make the stopped node count a send
            pair.both(lambda node: node.stop())
            pair.both(lambda node: _link(node, pair.addrs[1]))
        assert sum(pair.send(peer, _encap(rng), 84)
                   for peer in pair.addrs[1:]) == 0
        assert pair.byte.stats["sent"] == 0
        assert pair.byte.stats["ttl_drop"] == (0 if stop else 8)


def test_origin_delivers_to_itself_even_with_a_link_to_its_own_address():
    """``LinkReply`` handling does not refuse the node's own address, so a
    hostile peer can plant such a link; a packet for this node is still
    delivered here, not sent over it."""
    rng = random.Random(16)
    pair = Pair(16)
    me = pair.addrs[0]
    pair.both(lambda node: _link(node, me))
    assert pair.send(me, _encap(rng), 84) == 0
    assert pair.handled["ip"] == 1 and pair.byte.stats["sent"] == 0


def test_reference_mode_transports_carry_objects():
    """The selection reads the transport, not the config: a reference-mode
    ``SimTransport`` keeps every packet an object, a codec-mode one and
    the live transport carry frames."""
    from repro.phys import Internet, Site
    from repro.transport.sim import SimTransport
    sim = Simulator(seed=1, trace=False)
    host = Site(Internet(sim), "pub").add_host("a")
    assert not SimTransport(sim, host, 6000).carries_frames
    assert SimTransport(sim, host, 6001, wire_mode="codec").carries_frames
    assert UdpTransport.carries_frames
