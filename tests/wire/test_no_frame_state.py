"""What the whole-frame memo caches used to hide.

The codec keeps no per-frame or per-message state: ``encode`` packs what
the message holds *now*, two decodes of equal bytes share nothing
mutable, and only the five bounded value caches (addresses, URIs, short
strings) grow with traffic — never past ``_CACHE_MAX`` entries of
``_SPAN_MAX``-byte keys, whatever a peer sends.
"""

from repro.brunet.address import BrunetAddress
from repro.brunet.messages import (
    CtmRequest,
    IpEncap,
    LinkRequest,
    PingReply,
    PingRequest,
    RoutedPacket,
)
from repro.brunet.uri import Uri
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.obs.spans import TraceRef
from repro.wire import codec, decode, decode_lazy, encode, materialize

A = BrunetAddress(0x1234 << 100)
B = BrunetAddress(0x9876 << 90)
C = BrunetAddress(0x5555 << 80)

VALUE_CACHES = ("_ADDR_ENC", "_ADDR_DEC", "_URI_ENC", "_URI_DEC", "_STR_DEC")


def _echo(seq: int, trace=None) -> RoutedPacket:
    vip = VirtualIpPacket("10.128.0.2", "10.128.0.3", "icmp", 0,
                          IcmpEcho(seq, False, 1.5, 56), 84)
    return RoutedPacket(src=A, dest=B, payload=IpEncap(vip, 84), size=84,
                        exact=True, via=[A], trace=trace)


# -- (a) staleness ----------------------------------------------------------

def test_reencode_sees_a_mutated_ping_token():
    m = PingRequest(1, A)
    encode(m)
    m.token = 2
    assert decode(encode(m)).token == 2


def test_reencode_sees_a_mutated_ctm_request():
    m = CtmRequest(7, A, [Uri.udp("10.0.0.1", 4000)], "structured.near")
    encode(m)
    m.token, m.fanout, m.reply_via = 8, 2, C
    back = decode(encode(m))
    assert (back.token, back.fanout, back.reply_via) == (8, 2, C)


def test_reencode_sees_mutated_routed_envelope_fields():
    """The old envelope memo fingerprinted (hops, len(via), payload
    identity, trace ids) only: a changed ``ttl``, ``dest`` or nested
    payload field re-encoded as the stale frame."""
    m = _echo(1)
    encode(m)
    m.ttl -= 1
    m.dest = C
    m.payload.payload.payload.seq = 99
    back = decode(encode(m))
    assert back.ttl == m.ttl
    assert back.dest == C
    assert back.payload.payload.payload.seq == 99
    assert back == m


# -- (b) non-aliasing -------------------------------------------------------

def _assert_disjoint(x: RoutedPacket, y: RoutedPacket) -> None:
    assert x == y
    assert x is not y
    assert x.via is not y.via
    assert x.trace is not y.trace
    px, py = materialize(x.payload), materialize(y.payload)
    assert px is not py and px.__dict__ is not py.__dict__
    assert px.payload is not py.payload
    assert px.payload.payload is not py.payload.payload
    # mutate every mutable piece of one copy; the other must not move
    x.via.append(C)
    x.trace.parent = 1
    px.size = 1
    px.payload.payload.seq = 12345
    assert y.via == [A]
    assert y.trace.parent == 456
    assert py.size == 84
    assert py.payload.payload.seq == 7


def test_two_decodes_of_equal_bytes_share_no_mutable_state():
    buf = encode(_echo(7, trace=TraceRef(123, 456)))
    _assert_disjoint(decode(buf), decode(bytes(buf)))


def test_two_lazy_decodes_of_equal_bytes_share_no_mutable_state():
    buf = encode(_echo(7, trace=TraceRef(123, 456)))
    _assert_disjoint(decode_lazy(buf), decode_lazy(bytes(buf)))


def test_link_request_decodes_do_not_share_uri_list_or_trace():
    buf = encode(LinkRequest(3, A, [Uri.udp("10.0.0.1", 4000)],
                             "structured.near", TraceRef(1, 2)))
    x, y = decode(buf), decode(buf)
    assert x == y
    assert x.sender_uris is not y.sender_uris
    assert x.trace is not y.trace


# -- (c) no per-frame state -------------------------------------------------

def _dict_sizes() -> dict[str, int]:
    return {name: len(v) for name, v in vars(codec).items()
            if type(v) is dict}


def test_unique_frames_leave_no_state_behind():
    before = _dict_sizes()
    assert set(VALUE_CACHES) <= set(before)
    for i in range(20_000):
        frame = encode(_echo(i, trace=TraceRef(i + 1, i + 2)))
        assert decode(frame).payload.payload.payload.seq == i
        lazy = decode_lazy(frame)
        assert materialize(lazy.payload).payload.payload.seq == i
        assert encode(lazy) == frame          # transit splice
    after = _dict_sizes()
    for name in VALUE_CACHES:
        assert after.pop(name) <= codec._CACHE_MAX, name
        del before[name]
    assert after == before


# -- bounded value caches on hostile input ----------------------------------

def _key_bytes(cache: dict) -> int:
    return sum(len(k) for k in cache)


def test_oversized_uris_decode_but_are_never_cached():
    for name in VALUE_CACHES:
        getattr(codec, name).clear()
    big = "x" * 2000
    for i in range(10_000):
        m = PingReply(1, A, Uri.udp(f"{i}.{big}", 9), True)
        assert decode(encode(m)) == m
    assert len(codec._URI_DEC) == 0
    assert len(codec._URI_ENC) == 0
    assert _key_bytes(codec._STR_DEC) <= codec._SPAN_MAX     # just "udp"

    # short URIs still cache, and every key stays under the cap
    for i in range(codec._CACHE_MAX + 100):
        decode(encode(PingReply(1, A, Uri.udp(f"10.0.{i >> 8}.{i & 255}", 9),
                                True)))
    assert 0 < len(codec._URI_DEC) <= codec._CACHE_MAX
    assert _key_bytes(codec._URI_DEC) <= codec._CACHE_MAX * codec._SPAN_MAX
