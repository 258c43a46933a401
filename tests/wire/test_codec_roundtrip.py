"""Codec round-trip property tests: seeded fuzz over every message type.

For every protocol message type the invariant is
``decode(encode(m)) == m``; truncated or corrupted buffers must raise the
typed :class:`~repro.wire.DecodeError` and nothing else.  A value of a
type without a frame does not encode, and the retired tag 17, which once
carried a pickle of one, decodes as an unknown tag: a hostile pickle in
it never runs.
"""

import pickle
import random
from struct import Struct

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
from repro.brunet.uri import MAX_LEARNED_URIS, Uri
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


#: an RPC request as ``repro.middleware.rpc`` sends it: application bytes
RPC_DATAGRAM = b'[7,"job_done",{"job_id":7,"start_time":12.5},16000]'


def _vip(rng: random.Random) -> VirtualIpPacket:
    payload = rng.choice([
        None, "text-payload", b"\x00\x01raw", _icmp(rng),
        RPC_DATAGRAM,
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


#: what a hostile pickle's ``__reduce__`` made the decoder call
GADGET_HITS: list = []


def _gadget(*args) -> None:
    GADGET_HITS.append(args)


class _Gadget:
    def __reduce__(self):
        return _gadget, ("ran",)


_PICKLE = pickle.dumps(_Gadget(), protocol=4)
_KEY = b"\x00\x03cpu"
#: tag 17 once carried a pickle (here one whose loading calls
#: :func:`_gadget`), tags 19-21 a ring DHT's put / get / reply frames; they
#: are reserved, and each body is in the layout it had, so a decoder that
#: still knew the tag would accept it
RESERVED_BODIES = {
    17: bytes((17,)) + Struct(">I").pack(len(_PICKLE)) + _PICKLE,
    19: Struct(">BQd20sHB").pack(19, 1, 60.0, bytes(20), 0, 1) + _KEY
    + bytes((codec.T_NONE,)),
    20: Struct(">BQ20s").pack(20, 2, bytes(20)) + _KEY,
    21: Struct(">BQB").pack(21, 3, 0) + _KEY + b"\x00\x00",
}


def reserved_frames(src, dest) -> tuple[list[bytes], list[bytes]]:
    """The reserved-tag bodies as bare frames, and as the payloads of
    routed packets from ``src`` to ``dest``."""
    envelope = encode(RoutedPacket(src=src, dest=dest, payload=None,
                                   size=80, exact=True))
    assert envelope[-1] == codec.T_NONE     # the payload sub-frame is last
    return ([bytes((WIRE_VERSION,)) + b for b in RESERVED_BODIES.values()],
            [envelope[:-1] + b for b in RESERVED_BODIES.values()])


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
    # a reserved tag is unknown too: bare, and as a routed body
    bare, routed = reserved_frames(BrunetAddress(1), BrunetAddress(2))
    for tag, frame, pkt in zip(RESERVED_BODIES, bare, routed):
        for buf in (frame, pkt):
            with pytest.raises(DecodeError, match=f"unknown type tag {tag}"):
                decode(buf)


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
        # as a routed body too, nested one level down too
        for body in (msg, Forward(_addr(rng), msg, 80)):
            pkt = RoutedPacket(src=_addr(rng), dest=_addr(rng), payload=body,
                               size=80)
            with pytest.raises(DecodeError, match="connection type"):
                decode(encode(pkt))


def test_uri_list_longer_than_any_sender_builds_is_a_decode_error():
    """Every sender builds its URI list with ``UriSet.advertised()``: at
    most ``MAX_LEARNED_URIS`` learned URIs plus the local one.  A longer
    count is hostile and must fail typed, not make the decoder build up to
    65 535 URIs."""
    rng = random.Random(13)
    uris = [_uri(rng) for _ in range(MAX_LEARNED_URIS + 2)]
    assert len(uris) == 6
    with pytest.raises(DecodeError, match="URI"):
        decode(encode(LinkRequest(1, _addr(rng), uris, _conn_type(rng))))
    most = uris[:MAX_LEARNED_URIS + 1]
    msg = LinkRequest(2, _addr(rng), most, _conn_type(rng))
    assert decode(encode(msg)) == msg


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
    assert codec.frame_view(buf, codec.address_bytes(BrunetAddress(2))) \
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


def test_a_hostile_pickle_never_runs():
    """Tag 17 as a tunnelled packet's payload, where the codec once
    unpickled application data."""
    envelope = encode(RoutedPacket(
        src=BrunetAddress(1), dest=BrunetAddress(2), size=80, exact=True,
        payload=IpEncap(VirtualIpPacket("10.128.0.2", "10.128.0.3", "udp",
                                        15001, None, 64), 64)))
    assert envelope[-1] == codec.T_NONE     # the payload sub-frame is last
    frame = envelope[:-1] + RESERVED_BODIES[17]
    with pytest.raises(DecodeError, match="unknown type tag 17"):
        decode(frame)
    assert codec.frame_view(frame, codec.address_bytes(BrunetAddress(2))) \
        is None
    assert GADGET_HITS == []


def test_a_value_without_a_frame_does_not_encode():
    for value in ({"op": "rpc"}, [1, 2], 3, 2.5, object()):
        with pytest.raises(TypeError, match="no wire frame"):
            encode(IpEncap(value, 1))


# ---------------------------------------------------------------------------
# VTCP datagrams ride their typed frame
# ---------------------------------------------------------------------------

def _vtcp_packets() -> list:
    """The two datagrams of a VTCP bulk transfer, wrapped exactly as
    ``VtcpSocket._transmit`` → ``IpopRouter.send_ip`` wraps them."""
    data = Segment(1001, 2002, "DATA", b"\x11" * 1400, 1440)
    ack = Segment(2002, 1002, "ACK")
    return [IpEncap(VirtualIpPacket("10.128.0.2", "10.128.0.3", "vtcp", 5001,
                                    (5000, seg), seg.size), seg.size)
            for seg in (data, ack)]


def test_vtcp_datagrams_ride_their_typed_frame():
    packets = _vtcp_packets()
    frames = [encode(pkt) for pkt in packets]
    assert [decode(f) for f in frames] == _vtcp_packets()
    for pkt, frame in zip(packets, frames):
        datagram = encode(pkt.payload.payload)[1:]   # payloads come last
        assert datagram[0] == codec.T_VTCP_DATAGRAM
        assert frame.endswith(datagram)
    assert len(frames[0]) < 1400 + 120      # the body rides T_BYTES as is


def test_vtcp_datagram_shape_is_strict():
    """Only ``(u16 port, Segment)`` takes the typed frame, and a near miss
    has no frame at all; the decoder accepts nothing but a segment after
    the port."""
    for near_miss in [(70000, Segment(1, 2, "ACK")), (5000, "seg"),
                      (5000, Segment(1, 2, "ACK"), 3), [5000, Segment(1, 2, "ACK")]]:
        with pytest.raises(TypeError, match="no wire frame"):
            encode(near_miss)
    buf = bytearray(encode((5000, Segment(1, 2, "ACK"))))
    assert buf[1] == codec.T_VTCP_DATAGRAM and buf[4] == codec.T_VTCP_SEGMENT
    buf[4] = codec.T_NONE
    with pytest.raises(DecodeError, match="segment"):
        decode(bytes(buf))
