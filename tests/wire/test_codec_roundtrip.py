"""Codec round-trip property tests: seeded fuzz over every message type.

For every protocol message type the invariant is
``decode(encode(m)) == m``; truncated or corrupted buffers must raise the
typed :class:`~repro.wire.DecodeError` and nothing else.
"""

import random

import pytest

from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.connection import ConnectionType
from repro.brunet.messages import (
    CloseMessage,
    CtmReply,
    CtmRequest,
    Forward,
    IpEncap,
    LinkError,
    LinkReply,
    LinkRequest,
    PingReply,
    PingRequest,
    RoutedPacket,
)
from repro.brunet.uri import Uri
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.ipop.vtcp import Segment
from repro.obs.spans import TraceRef
from repro.wire import DecodeError, WIRE_VERSION, codec, decode, encode

# ---------------------------------------------------------------------------
# seeded generators, one per message type
# ---------------------------------------------------------------------------

def _addr(rng: random.Random) -> BrunetAddress:
    return BrunetAddress(rng.randrange(0, ADDRESS_SPACE))


def _uri(rng: random.Random) -> Uri:
    return Uri.udp(f"10.{rng.randrange(256)}.{rng.randrange(256)}."
                   f"{rng.randrange(1, 255)}", rng.randrange(1, 65536))


def _uris(rng: random.Random) -> list:
    return [_uri(rng) for _ in range(rng.randrange(0, 4))]


def _trace(rng: random.Random):
    if rng.random() < 0.5:
        return None
    return TraceRef(rng.randrange(1 << 63), rng.randrange(1 << 63))


def _conn_type(rng: random.Random) -> str:
    return rng.choice([t.value for t in ConnectionType])


def _icmp(rng: random.Random) -> IcmpEcho:
    return IcmpEcho(rng.randrange(1 << 31), rng.random() < 0.5,
                    rng.random() * 1e4, rng.randrange(8, 1400))


def _vip(rng: random.Random) -> VirtualIpPacket:
    payload = rng.choice([
        None, "text-payload", b"\x00\x01raw", _icmp(rng),
        {"op": "rpc", "args": [1, 2.5, "x"]},  # falls back to OPAQUE
    ])
    return VirtualIpPacket(
        f"10.128.0.{rng.randrange(2, 255)}", f"10.128.1.{rng.randrange(2, 255)}",
        rng.choice(["icmp", "udp", "tcp"]), rng.randrange(0, 65536),
        payload, rng.randrange(0, 65536))


def _segment(rng: random.Random) -> Segment:
    flags = rng.choice(["SYN", "SYN+ACK", "ACK", "DATA", "FIN"])
    if flags != "DATA":
        return Segment(rng.randrange(1 << 40), rng.randrange(1 << 40), flags)
    body = rng.randbytes(rng.choice([0, 1, 200, 1400]))
    return Segment(rng.randrange(1 << 40), rng.randrange(1 << 40), flags,
                   body, len(body) + 40)


GENERATORS = {
    LinkRequest: lambda rng: LinkRequest(
        rng.randrange(1, 1 << 40), _addr(rng), _uris(rng), _conn_type(rng),
        _trace(rng)),
    LinkReply: lambda rng: LinkReply(
        rng.randrange(1, 1 << 40), _addr(rng), _uris(rng), _uri(rng),
        _conn_type(rng), _trace(rng)),
    LinkError: lambda rng: LinkError(
        rng.randrange(1, 1 << 40), _addr(rng), rng.choice(["busy", ""])),
    CloseMessage: lambda rng: CloseMessage(
        _addr(rng), rng.choice(["", "shutdown", "trimmed"])),
    PingRequest: lambda rng: PingRequest(rng.randrange(1, 1 << 40),
                                         _addr(rng)),
    PingReply: lambda rng: PingReply(
        rng.randrange(1, 1 << 40), _addr(rng), _uri(rng),
        rng.random() < 0.5),
    CtmRequest: lambda rng: CtmRequest(
        rng.randrange(1, 1 << 40), _addr(rng), _uris(rng), _conn_type(rng),
        reply_via=_addr(rng) if rng.random() < 0.5 else None,
        fanout=rng.randrange(0, 3)),
    CtmReply: lambda rng: CtmReply(
        rng.randrange(1, 1 << 40), _addr(rng), _uris(rng), _conn_type(rng)),
    IpEncap: lambda rng: IpEncap(_vip(rng), rng.randrange(0, 65536)),
    Forward: lambda rng: Forward(
        _addr(rng),
        CtmReply(rng.randrange(1, 1 << 40), _addr(rng), _uris(rng),
                 _conn_type(rng)),
        rng.randrange(0, 65536)),
    VirtualIpPacket: _vip,
    IcmpEcho: _icmp,
    Segment: _segment,
    # what VtcpSocket._transmit puts in a virtual-IP packet
    tuple: lambda rng: (rng.randrange(1 << 16), _segment(rng)),
    RoutedPacket: lambda rng: RoutedPacket(
        src=_addr(rng), dest=_addr(rng),
        payload=rng.choice([
            CtmRequest(rng.randrange(1, 1 << 40), _addr(rng), _uris(rng),
                       _conn_type(rng)),
            IpEncap(_vip(rng), rng.randrange(0, 65536)),
            None,
        ]),
        size=rng.randrange(0, 65536), exact=rng.random() < 0.5,
        exclude_dest_link=rng.random() < 0.5,
        approach=rng.choice([None, "left", "right"]),
        ttl=rng.randrange(1, 64), hops=rng.randrange(0, 64),
        via=[_addr(rng) for _ in range(rng.randrange(0, 4))],
        trace=_trace(rng)),
}


def _sample_messages(seed: int = 0, per_type: int = 25) -> list:
    rng = random.Random(seed)
    return [gen(rng) for gen in GENERATORS.values() for _ in range(per_type)]


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("msg_type", list(GENERATORS), ids=lambda t: t.__name__)
def test_roundtrip_every_type(msg_type):
    rng = random.Random(hash(msg_type.__name__) & 0xFFFF)
    for _ in range(50):
        msg = GENERATORS[msg_type](rng)
        buf = encode(msg)
        assert buf[0] == WIRE_VERSION
        assert decode(buf) == msg


def test_roundtrip_is_deterministic():
    rng_a, rng_b = random.Random(9), random.Random(9)
    for gen in GENERATORS.values():
        assert encode(gen(rng_a)) == encode(gen(rng_b))


def test_opaque_fallback_roundtrips_arbitrary_payloads():
    msg = IpEncap({"dht": ("put", "key", [1, 2, 3])}, 128)
    assert decode(encode(msg)) == msg


def test_deeply_nested_forward():
    rng = random.Random(4)
    inner = Forward(_addr(rng), IpEncap(_vip(rng), 9), 77)
    pkt = RoutedPacket(src=_addr(rng), dest=_addr(rng), payload=inner,
                       size=100, exact=True)
    assert decode(encode(pkt)) == pkt


# ---------------------------------------------------------------------------
# malformed input → typed DecodeError
# ---------------------------------------------------------------------------

def test_decode_error_is_a_value_error():
    assert issubclass(DecodeError, ValueError)


def test_every_truncation_raises_decode_error():
    for msg in _sample_messages(seed=1, per_type=3):
        buf = encode(msg)
        for cut in range(len(buf)):
            with pytest.raises(DecodeError):
                decode(buf[:cut])


def test_bad_version_byte():
    buf = encode(PingRequest(1, BrunetAddress(42)))
    with pytest.raises(DecodeError, match="version"):
        decode(bytes([WIRE_VERSION + 1]) + buf[1:])


def test_unknown_type_tag():
    with pytest.raises(DecodeError, match="tag"):
        decode(bytes([WIRE_VERSION, 250]))


def test_trailing_garbage_rejected():
    buf = encode(PingRequest(1, BrunetAddress(42)))
    with pytest.raises(DecodeError, match="trailing"):
        decode(buf + b"\x00")


def test_corrupted_bytes_never_raise_anything_else():
    rng = random.Random(2)
    for msg in _sample_messages(seed=2, per_type=2):
        buf = bytearray(encode(msg))
        for _ in range(20):
            corrupt = bytearray(buf)
            for _ in range(rng.randrange(1, 4)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            try:
                decode(bytes(corrupt))
            except DecodeError:
                pass  # the only acceptable exception

@pytest.mark.parametrize("msg_type",
                         [LinkRequest, LinkReply, CtmRequest, CtmReply],
                         ids=lambda t: t.__name__)
def test_unknown_conn_type_is_a_decode_error(msg_type):
    """The receiver builds ``ConnectionType(msg.conn_type)``: a frame that
    is well-formed except for that string must fail here, typed, not as a
    ``ValueError`` inside the node."""
    rng = random.Random(12)
    for hostile in ("bogus", "", "LEAF", "structured.shortcut", "leaf\x00"):
        msg = GENERATORS[msg_type](rng)
        msg.conn_type = hostile
        with pytest.raises(DecodeError, match="connection type"):
            decode(encode(msg))
        # as a routed body the envelope still parses; the body fails at
        # materialize, nested one level down too
        for body in (msg, Forward(_addr(rng), msg, 80)):
            pkt = RoutedPacket(src=_addr(rng), dest=_addr(rng), payload=body,
                               size=80)
            with pytest.raises(DecodeError, match="connection type"):
                decode(encode(pkt))
            lazy = codec.decode_lazy(encode(pkt))
            with pytest.raises(DecodeError, match="connection type"):
                codec.materialize(lazy.payload)


def test_nesting_deeper_than_the_stack_is_a_decode_error():
    """5 bytes per level: a 15 KB datagram nests 3000 ``IpEncap`` frames,
    and the recursive decoders ran out of stack with a ``RecursionError``
    that no caller catches."""
    body = encode(IpEncap(None, 0))[1:-1] * 3000 + encode(None)[1:]
    pkt = RoutedPacket(src=BrunetAddress(1), dest=BrunetAddress(2),
                       payload=None, size=10)
    buf = encode(pkt)[:-1] + body
    with pytest.raises(DecodeError, match="malformed"):
        decode(buf)
    with pytest.raises(DecodeError, match="malformed"):
        codec.materialize(codec.decode_lazy(buf).payload)
    assert codec.deliver_view(buf, codec.address_bytes(BrunetAddress(2))) \
        is None
    shallow = encode(pkt)[:-1] + body[-5 * 100 - 1:]
    assert decode(shallow).payload.size == 0


def test_non_buffer_input():
    with pytest.raises(DecodeError):
        decode(12345)


def test_malformed_utf8_string_field():
    msg = CloseMessage(BrunetAddress(7), "reason")
    buf = bytearray(encode(msg))
    buf[-1] = 0xFF  # last byte of the reason string: invalid UTF-8 start
    with pytest.raises(DecodeError):
        decode(bytes(buf))


def test_malformed_opaque_pickle():
    msg = IpEncap({"k": "v"}, 1)
    buf = bytearray(encode(msg))
    # clobber the middle of the pickle blob
    mid = len(buf) // 2
    buf[mid:mid + 3] = b"\xff\xff\xff"
    try:
        decode(bytes(buf))
    except DecodeError:
        pass  # typed failure is the requirement; a lucky decode is fine


# ---------------------------------------------------------------------------
# VTCP datagrams ride their typed frame, never the OPAQUE pickle
# ---------------------------------------------------------------------------

def _vtcp_packets() -> list:
    """The two datagrams of a VTCP bulk transfer, wrapped exactly as
    ``VtcpSocket._transmit`` → ``IpopRouter.send_ip`` wraps them."""
    data = Segment(1001, 2002, "DATA", b"\x11" * 1400, 1440)
    ack = Segment(2002, 1002, "ACK")
    return [IpEncap(VirtualIpPacket("10.128.0.2", "10.128.0.3", "vtcp", 5001,
                                    (5000, seg), seg.size), seg.size)
            for seg in (data, ack)]


def test_vtcp_datagrams_encode_without_opaque(monkeypatch):
    before = codec.opaque_frames
    frames = [encode(pkt) for pkt in _vtcp_packets()]
    assert codec.opaque_frames == before
    # no T_OPAQUE byte at any tag position: the frames decode with the
    # pickle decoder unplugged
    decoders = list(codec._DECODERS)
    decoders[codec.T_OPAQUE] = None
    monkeypatch.setattr(codec, "_DECODERS", decoders)
    assert [decode(f) for f in frames] == _vtcp_packets()
    assert len(frames[0]) < 1400 + 120      # the body rides T_BYTES as is


def test_vtcp_datagram_shape_is_strict():
    """Only ``(u16 port, Segment)`` takes the typed frame; its decoder
    accepts nothing but a segment after the port."""
    before = codec.opaque_frames
    for near_miss in [(70000, Segment(1, 2, "ACK")), (5000, "seg"),
                      (5000, Segment(1, 2, "ACK"), 3), [5000, Segment(1, 2, "ACK")]]:
        assert decode(encode(near_miss)) == near_miss
    assert codec.opaque_frames == before + 4
    buf = bytearray(encode((5000, Segment(1, 2, "ACK"))))
    assert buf[1] == codec.T_VTCP_DATAGRAM and buf[4] == codec.T_VTCP_SEGMENT
    buf[4] = codec.T_NONE
    with pytest.raises(DecodeError, match="segment"):
        decode(bytes(buf))
