"""Binary codec: tag + length-prefixed fields for every protocol message.

Frame layout (outermost message only)::

    byte 0      WIRE_VERSION
    byte 1      type tag
    bytes 2..   fields, fixed order per type

Nested values (a ``RoutedPacket``'s payload, a ``Forward``'s inner
message, an ``IpEncap``'s virtual packet) repeat the ``tag + fields``
shape without the version byte.  All integers are big-endian; strings are
UTF-8 with a u16 length prefix; lists carry a u16 count; optional fields
carry a presence byte.  Addresses are the raw 20 bytes of the 160-bit
ring position.  Trace context is encoded as the ``(trace_id, parent)``
id pair — the receiving side reconstructs a fresh
:class:`~repro.obs.spans.TraceRef`, so causal traces survive the byte
boundary without object references.

Version 2 is built for per-packet speed:

* every fixed-shape run of fields is one precompiled composite
  :class:`struct.Struct` (``_RHDR``, ``_TOK_ADDR``, ...) packed and
  unpacked in a single call, instead of field-by-field u8/u16 packs;
* ``encode`` writes into one reusable ``bytearray`` and snapshots it
  once at the end;
* the :class:`RoutedPacket` frame is **header-first**: src/dest/size/
  flags/ttl/hops, then trace ids, then the via list, with the payload
  sub-frame *last*.  One parse of that head (``_routed_head``) serves
  the two readers that stop before the via list: :func:`peek_header`
  (tooling and the perf gate) and :func:`transit_view`, which a node
  calls on every routed frame it receives.  Plain transit traffic is
  forwarded with :func:`patch_forward`, which splices ``hops + 1``,
  ``via_count + 1`` and the node's own address into the received bytes,
  so a transit hop builds no message object and never calls ``encode``.
  The two ends of a tunnelled IP packet work on bytes too:
  :func:`encode_origin` packs everything a launching node puts before
  the payload (version … ``via[0]``, 76 bytes) with one struct, and
  :func:`deliver_view` hands the destination the previous hop, ``hops``
  and the decoded ``IpEncap`` from one pass over an arrived frame.
  Frames the views decline (other payloads, TTL expiry, traced, odd
  flags, malformed) go through :func:`decode_lazy`, which defers the
  payload to a zero-copy :class:`RawBody` slice that ``encode`` splices
  back (:func:`materialize` decodes it at local delivery);
* repeated *values* (addresses, URIs, short strings) round-trip through
  five bounded caches of immutable objects.  Nothing is cached per frame
  or per message: ``encode`` packs and ``decode`` parses on every call,
  so a message mutated between two encodes re-encodes as it now is, and
  two decodes of equal bytes share no mutable state.

Payloads the protocol does not define (middleware RPC bodies, opaque
application data) fall back to an ``OPAQUE`` frame carrying a pickle of
the object; the module-level :data:`opaque_frames` counter records every
such fallback so transports can surface a ``wire.opaque_frames`` metric.
That keeps the codec total over everything the overlay can legitimately
carry; like the paper's deployment, peers on a link are assumed to be
inside one trust domain (do not decode frames from untrusted networks).

Every decode failure — truncation, bad version, unknown tag, malformed
UTF-8/pickle, a ``conn_type`` that names no ``ConnectionType``, trailing
garbage — raises :class:`DecodeError` and nothing else (the header
views return None instead, and the caller's ``decode_lazy`` raises it).
The lazy path defers *body* validation to :func:`materialize`
(a transit router does not validate payloads it merely forwards); the
node layer counts a late body failure exactly like a transport decode
error.
"""

from __future__ import annotations

import pickle
from struct import Struct
from struct import error as _StructError
from typing import Any, NamedTuple, Optional

from repro.brunet.address import BrunetAddress
from repro.brunet.connection import ConnectionType
from repro.brunet.dht import DhtGet, DhtPut, DhtReply
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
from repro.phys.endpoints import Endpoint

#: wire format version; bumped on any incompatible layout change.
#: v2: header-first RoutedPacket (payload last), composite fixed runs,
#: approach as a 1-byte code, fixed-prefix reordering of IpEncap/Forward/
#: VirtualIpPacket/Segment, typed frames for vTCP segments and DHT ops.
WIRE_VERSION = 2

#: physical framing charged per datagram in codec-mode accounting:
#: IPv4 header (20) + UDP header (8).  The overlay's own framing is part
#: of the encoded message, so it is never charged twice.
UDP_IP_OVERHEAD = 28

ADDRESS_BYTES = 20

# type tags (stable on the wire — append, never renumber)
T_LINK_REQUEST = 1
T_LINK_REPLY = 2
T_LINK_ERROR = 3
T_CLOSE = 4
T_PING_REQUEST = 5
T_PING_REPLY = 6
T_CTM_REQUEST = 7
T_CTM_REPLY = 8
T_IP_ENCAP = 9
T_FORWARD = 10
T_ROUTED = 11
T_VIRTUAL_IP = 12
T_ICMP_ECHO = 13
T_NONE = 14
T_STR = 15
T_BYTES = 16
T_OPAQUE = 17
T_VTCP_SEGMENT = 18
T_DHT_PUT = 19
T_DHT_GET = 20
T_DHT_REPLY = 21
T_VTCP_DATAGRAM = 22

#: OPAQUE-pickle fallback frames encoded since process start; transports
#: snapshot this around ``encode`` to feed the ``wire.opaque_frames``
#: metric without the codec depending on the metrics registry.
opaque_frames = 0

_U16 = Struct(">H")
_U32 = Struct(">I")

# ---------------------------------------------------------------------------
# composite layouts (one Struct per fixed-shape field run, tag included
# where the whole prefix is fixed).  These Structs ARE the layout tables:
# encoders pack them and decoders unpack them.
# ---------------------------------------------------------------------------

_TOK_ADDR = Struct(">BQ20s")            # tag, token, address  (ping/link/ctm heads)
_ADDR20 = Struct(">B20s")               # tag, address         (close head)
_RHDR = Struct(">B20s20sIBBBHH")        # tag, src, dest, size, exact,
#                                         exclude_dest_link, approach, ttl, hops
_TRACE = Struct(">BQQ")                 # presence, trace_id, parent
_QQ = Struct(">QQ")
_ICMP = Struct(">BIBdI")                # tag, seq, is_reply, sent_at, data_size
_IPENC = Struct(">BI")                  # tag, size (payload follows)
_FWD = Struct(">B20sI")                 # tag, final_dest, size (inner follows)
_VIP_TAIL = Struct(">II")               # port, size (after the three strings)
_SEG = Struct(">BqqI")                  # tag, seq, ack, size (flags+payload follow)
_DHT_PUT = Struct(">BQd20sHB")          # tag, rid, ttl, reply_to, replicate, primary
_DHT_GET = Struct(">BQ20s")             # tag, rid, reply_to
_DHT_REP = Struct(">BQB")               # tag, rid, found
_VDG = Struct(">BH")                    # tag, source port (segment follows)
_FWD_PATCH = Struct(">HBH")             # hops, trace presence, via count
# a whole frame up to its payload as the origin sends it: version, _RHDR,
# no trace, a via list of one
_ORIGIN = Struct(">B" + _RHDR.format[1:] + "BH20s")

# Offsets into a top-level routed frame, all derived from _RHDR (the
# version byte shifts every struct offset by one).  The last three hold
# only for the shape the byte paths accept: coded approach, no trace.
_O_DEST = 1 + Struct(">B20s").size              # dest address
_O_EXCLUDE = 1 + Struct(">B20s20sIB").size      # exclude_dest_link flag
_O_APPROACH = _O_EXCLUDE + 1                    # approach code
_O_HOPS = 1 + _RHDR.size - _U16.size            # hops is _RHDR's last field
_O_TRACE = 1 + _RHDR.size                       # trace presence byte
_O_COUNT = _O_TRACE + 1                         # via count
_O_VIA = _O_COUNT + _U16.size                   # first via address

_APPROACH_NONE, _APPROACH_LEFT, _APPROACH_RIGHT, _APPROACH_OTHER = 0, 1, 2, 3
_APPROACH_CODE = {None: 0, "left": 1, "right": 2}
_APPROACH_STR = (None, "left", "right")

_NO_TRACE = b"\x00"
_VERSION_BYTE = bytes((WIRE_VERSION,))


class DecodeError(ValueError):
    """A buffer could not be decoded into a protocol message."""


#: everything a decoder can raise on malformed input (``DecodeError`` is
#: a ``ValueError``; ``RecursionError``: frames nested deeper than the
#: interpreter's stack)
_MALFORMED = (_StructError, IndexError, OverflowError, ValueError,
              RecursionError)


class RawBody:
    """Zero-copy stand-in for an undecoded routed-packet payload.

    Holds the original frame buffer and the offset where the payload
    sub-frame starts; :func:`materialize` decodes it on local delivery,
    and the encoder splices ``raw`` straight into the outgoing frame on
    transit forwarding.
    """

    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int):
        self.buf = buf
        self.off = off

    @property
    def raw(self) -> memoryview:
        """The encoded payload bytes (tag + fields), without copying."""
        return memoryview(self.buf)[self.off:]

    def __len__(self) -> int:
        return len(self.buf) - self.off

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RawBody):
            return self.raw == other.raw
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RawBody {len(self)}B undecoded>"


class FrameHeader(NamedTuple):
    """Result of :func:`peek_header`: the routing-relevant prefix of a
    frame, without touching the body.  Non-routed frames fill only
    ``version`` and ``tag``."""

    version: int
    tag: int
    src: Optional[BrunetAddress] = None
    dest: Optional[BrunetAddress] = None
    size: Optional[int] = None
    exact: Optional[bool] = None
    exclude_dest_link: Optional[bool] = None
    approach: Optional[str] = None
    ttl: Optional[int] = None
    hops: Optional[int] = None
    trace_id: Optional[int] = None
    trace_parent: Optional[int] = None


# ---------------------------------------------------------------------------
# bounded value caches.  Addresses, URIs and short protocol strings repeat
# heavily on a per-packet basis (your ring neighbours do not change every
# datagram); all cached values are immutable, so sharing them across
# decodes is safe.  Caches clear wholesale when full — no LRU bookkeeping
# on the hot path.
# ---------------------------------------------------------------------------

_CACHE_MAX = 8192
#: longest encoded string or URI span that is cached.  Length prefixes
#: are u16, so a peer can send a 64 KB string or a ~128 KB URI; those
#: decode correctly but uncached, so no peer can pin more than
#: ``_CACHE_MAX`` keys of this many bytes in any cache.
_SPAN_MAX = 64
_ADDR_ENC: dict[int, bytes] = {}
_ADDR_DEC: dict[bytes, BrunetAddress] = {}
_URI_ENC: dict[Uri, bytes] = {}
_URI_DEC: dict[bytes, Uri] = {}
_STR_DEC: dict[bytes, str] = {}


def _remember(cache: dict, key: Any, value: Any) -> None:
    if len(cache) >= _CACHE_MAX:
        cache.clear()
    cache[key] = value


def address_bytes(a: int) -> bytes:
    """Address → exactly 20 big-endian bytes (cached): how an address
    appears in every frame."""
    b = _ADDR_ENC.get(a)
    if b is None:
        b = int(a).to_bytes(ADDRESS_BYTES, "big")
        _remember(_ADDR_ENC, a, b)
    return b


_ab = address_bytes


def _da(raw: bytes) -> BrunetAddress:
    a = _ADDR_DEC.get(raw)
    if a is None:
        a = BrunetAddress(int.from_bytes(raw, "big"))
        _remember(_ADDR_DEC, raw, a)
    return a


def _trunc(need: int, pos: int, have: int) -> DecodeError:
    return DecodeError(f"truncated buffer: need {need} bytes at offset "
                       f"{pos}, have {have - pos}")


def _ds(raw: bytes) -> str:
    """Short-string decode through the cache (UTF-8 errors are typed)."""
    s = _STR_DEC.get(raw)
    if s is None:
        try:
            s = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"malformed UTF-8 string: {exc}") from None
        if len(raw) <= _SPAN_MAX:
            _remember(_STR_DEC, raw, s)
    return s


# ---------------------------------------------------------------------------
# variable-field helpers (encode side appends to the shared bytearray;
# decode side returns (value, new_pos) and bounds-checks every read)
# ---------------------------------------------------------------------------

def _ps(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    out += _U16.pack(len(raw))
    out += raw


def _pu(out: bytearray, u: Uri) -> None:
    b = _URI_ENC.get(u)
    if b is None:
        t = u.transport.encode("utf-8")
        ip = u.endpoint.ip.encode("utf-8")
        b = b"".join((_U16.pack(len(t)), t, _U16.pack(len(ip)), ip,
                      _U16.pack(u.endpoint.port)))
        if len(b) <= _SPAN_MAX:
            _remember(_URI_ENC, u, b)
    out += b


def _puris(out: bytearray, uris: list) -> None:
    out += _U16.pack(len(uris))
    for u in uris:
        _pu(out, u)


def _ptrace(out: bytearray, ref: Optional[TraceRef]) -> None:
    if ref is None:
        out += _NO_TRACE
    else:
        out += _TRACE.pack(1, ref.trace_id, ref.parent)


def _d_str(buf: bytes, pos: int, n: int) -> tuple[str, int]:
    end = pos + 2
    if end > n:
        raise _trunc(2, pos, n)
    k = (buf[pos] << 8) | buf[pos + 1]
    pos, end = end, end + k
    if end > n:
        raise _trunc(k, pos, n)
    return _ds(buf[pos:end]), end


def _d_uri(buf: bytes, pos: int, n: int) -> tuple[Uri, int]:
    if pos + 2 > n:
        raise _trunc(2, pos, n)
    tlen = (buf[pos] << 8) | buf[pos + 1]
    p2 = pos + 2 + tlen
    if p2 + 2 > n:
        raise _trunc(tlen + 2, pos + 2, n)
    ilen = (buf[p2] << 8) | buf[p2 + 1]
    end = p2 + 2 + ilen + 2
    if end > n:
        raise _trunc(ilen + 2, p2 + 2, n)
    span = buf[pos:end]
    u = _URI_DEC.get(span)
    if u is None:
        transport = _ds(buf[pos + 2:p2])
        ip = _ds(buf[p2 + 2:end - 2])
        port = (buf[end - 2] << 8) | buf[end - 1]
        u = Uri(transport, Endpoint(ip, port))
        if len(span) <= _SPAN_MAX:
            _remember(_URI_DEC, span, u)
    return u, end


def _d_uris(buf: bytes, pos: int, n: int) -> tuple[list, int]:
    if pos + 2 > n:
        raise _trunc(2, pos, n)
    count = (buf[pos] << 8) | buf[pos + 1]
    pos += 2
    uris = []
    for _ in range(count):
        u, pos = _d_uri(buf, pos, n)
        uris.append(u)
    return uris, pos


def _d_trace(buf: bytes, pos: int, n: int) -> tuple[Optional[TraceRef], int]:
    if pos >= n:
        raise _trunc(1, pos, n)
    if not buf[pos]:
        return None, pos + 1
    pos += 1
    if pos + 16 > n:
        raise _trunc(16, pos, n)
    tid, parent = _QQ.unpack_from(buf, pos)
    return TraceRef(tid, parent), pos + 16


def _d_addr(buf: bytes, pos: int, n: int) -> tuple[BrunetAddress, int]:
    end = pos + ADDRESS_BYTES
    if end > n:
        raise _trunc(ADDRESS_BYTES, pos, n)
    return _da(buf[pos:end]), end


_CONN_TYPES = frozenset(t.value for t in ConnectionType)


def _d_conn_type(buf: bytes, pos: int, n: int) -> tuple[str, int]:
    """A ``conn_type`` field: the receiver builds a ``ConnectionType``
    from it, so any other string is a malformed frame."""
    s, pos = _d_str(buf, pos, n)
    if s not in _CONN_TYPES:
        raise DecodeError(f"unknown connection type {s!r}")
    return s, pos


_new = object.__new__


# ---------------------------------------------------------------------------
# per-type encoders.  Each appends `tag + fields` to the shared buffer;
# fixed-shape prefixes are single composite packs.
# ---------------------------------------------------------------------------

def _e_link_request(out: bytearray, m: LinkRequest) -> None:
    out += _TOK_ADDR.pack(T_LINK_REQUEST, m.token, _ab(m.sender_addr))
    _puris(out, m.sender_uris)
    _ps(out, m.conn_type)
    _ptrace(out, m.trace)


def _e_link_reply(out: bytearray, m: LinkReply) -> None:
    out += _TOK_ADDR.pack(T_LINK_REPLY, m.token, _ab(m.sender_addr))
    _puris(out, m.sender_uris)
    _pu(out, m.observed_uri)
    _ps(out, m.conn_type)
    _ptrace(out, m.trace)


def _e_link_error(out: bytearray, m: LinkError) -> None:
    out += _TOK_ADDR.pack(T_LINK_ERROR, m.token, _ab(m.sender_addr))
    _ps(out, m.reason)


def _e_close(out: bytearray, m: CloseMessage) -> None:
    out += _ADDR20.pack(T_CLOSE, _ab(m.sender_addr))
    _ps(out, m.reason)


def _e_ping_request(out: bytearray, m: PingRequest) -> None:
    out += _TOK_ADDR.pack(T_PING_REQUEST, m.token, _ab(m.sender_addr))


def _e_ping_reply(out: bytearray, m: PingReply) -> None:
    out += _TOK_ADDR.pack(T_PING_REPLY, m.token, _ab(m.sender_addr))
    _pu(out, m.observed_uri)
    out += b"\x01" if m.known else b"\x00"


def _e_ctm_request(out: bytearray, m: CtmRequest) -> None:
    out += _TOK_ADDR.pack(T_CTM_REQUEST, m.token, _ab(m.initiator_addr))
    _puris(out, m.initiator_uris)
    _ps(out, m.conn_type)
    rv = m.reply_via
    if rv is None:
        out += b"\x00"
    else:
        out += b"\x01"
        out += _ab(rv)
    out += _U16.pack(m.fanout)


def _e_ctm_reply(out: bytearray, m: CtmReply) -> None:
    out += _TOK_ADDR.pack(T_CTM_REPLY, m.token, _ab(m.responder_addr))
    _puris(out, m.responder_uris)
    _ps(out, m.conn_type)


def _e_ip_encap(out: bytearray, m: IpEncap) -> None:
    out += _IPENC.pack(T_IP_ENCAP, m.size)
    _e_any(out, m.payload)


def _e_forward(out: bytearray, m: Forward) -> None:
    out += _FWD.pack(T_FORWARD, _ab(m.final_dest), m.size)
    _e_any(out, m.inner)


def _e_routed(out: bytearray, m: RoutedPacket) -> None:
    ap = m.approach
    apc = _APPROACH_CODE.get(ap, _APPROACH_OTHER)
    out += _RHDR.pack(T_ROUTED, _ab(m.src), _ab(m.dest), m.size,
                      1 if m.exact else 0, 1 if m.exclude_dest_link else 0,
                      apc, m.ttl, m.hops)
    if apc == _APPROACH_OTHER:
        _ps(out, ap)
    _ptrace(out, m.trace)
    via = m.via
    out += _U16.pack(len(via))
    for a in via:
        out += _ab(a)
    p = m.payload
    if type(p) is RawBody:
        out += p.raw          # transit splice: never re-encode the body
    else:
        _e_any(out, p)


def _e_virtual_ip(out: bytearray, m: VirtualIpPacket) -> None:
    out.append(T_VIRTUAL_IP)
    _ps(out, m.src_ip)
    _ps(out, m.dst_ip)
    _ps(out, m.proto)
    out += _VIP_TAIL.pack(m.port, m.size)
    _e_any(out, m.payload)


def _e_icmp_echo(out: bytearray, m: IcmpEcho) -> None:
    out += _ICMP.pack(T_ICMP_ECHO, m.seq, 1 if m.is_reply else 0,
                      m.sent_at, m.data_size)


def _e_segment(out: bytearray, m: Segment) -> None:
    out += _SEG.pack(T_VTCP_SEGMENT, m.seq, m.ack, m.size)
    _ps(out, m.flags)
    _e_any(out, m.payload)


def _e_dht_put(out: bytearray, m: DhtPut) -> None:
    out += _DHT_PUT.pack(T_DHT_PUT, m.rid, m.ttl, _ab(m.reply_to),
                         m.replicate, 1 if m.primary else 0)
    _ps(out, m.key)
    _e_any(out, m.value)


def _e_dht_get(out: bytearray, m: DhtGet) -> None:
    out += _DHT_GET.pack(T_DHT_GET, m.rid, _ab(m.reply_to))
    _ps(out, m.key)


def _e_dht_reply(out: bytearray, m: DhtReply) -> None:
    out += _DHT_REP.pack(T_DHT_REPLY, m.rid, 1 if m.found else 0)
    _ps(out, m.key)
    values = m.values
    out += _U16.pack(len(values))
    for v in values:
        _e_any(out, v)


def _e_rawbody(out: bytearray, m: RawBody) -> None:
    out += m.raw


_ENCODERS: dict[type, Any] = {
    LinkRequest: _e_link_request,
    LinkReply: _e_link_reply,
    LinkError: _e_link_error,
    CloseMessage: _e_close,
    PingRequest: _e_ping_request,
    PingReply: _e_ping_reply,
    CtmRequest: _e_ctm_request,
    CtmReply: _e_ctm_reply,
    IpEncap: _e_ip_encap,
    Forward: _e_forward,
    RoutedPacket: _e_routed,
    VirtualIpPacket: _e_virtual_ip,
    IcmpEcho: _e_icmp_echo,
    Segment: _e_segment,
    DhtPut: _e_dht_put,
    DhtGet: _e_dht_get,
    DhtReply: _e_dht_reply,
    RawBody: _e_rawbody,
}

def _e_any(out: bytearray, value: Any) -> None:
    global opaque_frames
    t = type(value)
    enc = _ENCODERS.get(t)
    if enc is not None:
        enc(out, value)
    elif value is None:
        out.append(T_NONE)
    elif t is str:
        out.append(T_STR)
        _ps(out, value)
    elif t is bytes:
        out.append(T_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif (t is tuple and len(value) == 2 and type(value[1]) is Segment
          and type(value[0]) is int and 0 <= value[0] <= 0xFFFF):
        # what VtcpSocket puts in a virtual-IP packet: (source port, segment)
        out += _VDG.pack(T_VTCP_DATAGRAM, value[0])
        _e_segment(out, value[1])
    else:
        opaque_frames += 1
        out.append(T_OPAQUE)
        raw = pickle.dumps(value, protocol=4)
        out += _U32.pack(len(raw))
        out += raw


# ---------------------------------------------------------------------------
# per-type decoders: flat (buf, pos, n) -> (msg, new_pos) functions over
# the same layouts.  Construction bypasses dataclass __init__ (plain
# attribute dicts) — measurably faster and behaviourally identical for
# eq/repr/field access.
# ---------------------------------------------------------------------------

def _d_link_request(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    uris, pos = _d_uris(buf, pos + 28, n)
    conn_type, pos = _d_conn_type(buf, pos, n)
    trace, pos = _d_trace(buf, pos, n)
    m = _new(LinkRequest)
    m.__dict__ = {"token": token, "sender_addr": _da(raw),
                  "sender_uris": uris, "conn_type": conn_type,
                  "trace": trace}
    return m, pos


def _d_link_reply(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    uris, pos = _d_uris(buf, pos + 28, n)
    observed, pos = _d_uri(buf, pos, n)
    conn_type, pos = _d_conn_type(buf, pos, n)
    trace, pos = _d_trace(buf, pos, n)
    m = _new(LinkReply)
    m.__dict__ = {"token": token, "sender_addr": _da(raw),
                  "sender_uris": uris, "observed_uri": observed,
                  "conn_type": conn_type, "trace": trace}
    return m, pos


def _d_link_error(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    reason, pos = _d_str(buf, pos + 28, n)
    m = _new(LinkError)
    m.__dict__ = {"token": token, "sender_addr": _da(raw), "reason": reason}
    return m, pos


def _d_close(buf: bytes, pos: int, n: int):
    raw = _ADDR20.unpack_from(buf, pos - 1)[1]
    reason, pos = _d_str(buf, pos + 20, n)
    m = _new(CloseMessage)
    m.__dict__ = {"sender_addr": _da(raw), "reason": reason}
    return m, pos


def _d_ping_request(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    m = _new(PingRequest)
    m.__dict__ = {"token": token, "sender_addr": _da(raw)}
    return m, pos + 28


def _d_ping_reply(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    observed, pos = _d_uri(buf, pos + 28, n)
    if pos >= n:
        raise _trunc(1, pos, n)
    m = _new(PingReply)
    m.__dict__ = {"token": token, "sender_addr": _da(raw),
                  "observed_uri": observed, "known": buf[pos] != 0}
    return m, pos + 1


def _d_ctm_request(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    uris, pos = _d_uris(buf, pos + 28, n)
    conn_type, pos = _d_conn_type(buf, pos, n)
    if pos >= n:
        raise _trunc(1, pos, n)
    if buf[pos]:
        reply_via, pos = _d_addr(buf, pos + 1, n)
    else:
        reply_via, pos = None, pos + 1
    if pos + 2 > n:
        raise _trunc(2, pos, n)
    fanout = (buf[pos] << 8) | buf[pos + 1]
    m = _new(CtmRequest)
    m.__dict__ = {"token": token, "initiator_addr": _da(raw),
                  "initiator_uris": uris, "conn_type": conn_type,
                  "reply_via": reply_via, "fanout": fanout}
    return m, pos + 2


def _d_ctm_reply(buf: bytes, pos: int, n: int):
    token, raw = _TOK_ADDR.unpack_from(buf, pos - 1)[1:]
    uris, pos = _d_uris(buf, pos + 28, n)
    conn_type, pos = _d_conn_type(buf, pos, n)
    m = _new(CtmReply)
    m.__dict__ = {"token": token, "responder_addr": _da(raw),
                  "responder_uris": uris, "conn_type": conn_type}
    return m, pos


def _d_ip_encap(buf: bytes, pos: int, n: int):
    size = _IPENC.unpack_from(buf, pos - 1)[1]
    payload, pos = _d_any(buf, pos + 4, n)
    m = _new(IpEncap)
    m.__dict__ = {"payload": payload, "size": size}
    return m, pos


def _d_forward(buf: bytes, pos: int, n: int):
    raw, size = _FWD.unpack_from(buf, pos - 1)[1:]
    inner, pos = _d_any(buf, pos + 24, n)
    m = _new(Forward)
    m.__dict__ = {"final_dest": _da(raw), "inner": inner, "size": size}
    return m, pos


def _d_routed_env(buf: bytes, pos: int, n: int):
    """Shared envelope parse: everything up to (not including) the
    payload sub-frame.  Returns (packet-with-None-payload, payload_pos)."""
    (src, dest, size, exact, excl, apc,
     ttl, hops) = _RHDR.unpack_from(buf, pos - 1)[1:]
    pos += _RHDR.size - 1
    if apc == _APPROACH_OTHER:
        approach, pos = _d_str(buf, pos, n)
    else:
        try:
            approach = _APPROACH_STR[apc]
        except IndexError:
            raise DecodeError(f"unknown approach code {apc}") from None
    trace, pos = _d_trace(buf, pos, n)
    if pos + 2 > n:
        raise _trunc(2, pos, n)
    count = (buf[pos] << 8) | buf[pos + 1]
    pos += 2
    via = []
    for _ in range(count):
        a, pos = _d_addr(buf, pos, n)
        via.append(a)
    m = _new(RoutedPacket)
    m.__dict__ = {"src": _da(src), "dest": _da(dest), "payload": None,
                  "size": size, "exact": exact != 0,
                  "exclude_dest_link": excl != 0, "approach": approach,
                  "ttl": ttl, "hops": hops, "via": via, "trace": trace}
    return m, pos


def _d_routed(buf: bytes, pos: int, n: int):
    m, pos = _d_routed_env(buf, pos, n)
    payload, pos = _d_any(buf, pos, n)
    m.__dict__["payload"] = payload
    return m, pos


def _d_virtual_ip(buf: bytes, pos: int, n: int):
    src_ip, pos = _d_str(buf, pos, n)
    dst_ip, pos = _d_str(buf, pos, n)
    proto, pos = _d_str(buf, pos, n)
    if pos + 8 > n:
        raise _trunc(8, pos, n)
    port, size = _VIP_TAIL.unpack_from(buf, pos)
    payload, pos = _d_any(buf, pos + 8, n)
    m = _new(VirtualIpPacket)
    m.__dict__ = {"src_ip": src_ip, "dst_ip": dst_ip, "proto": proto,
                  "port": port, "payload": payload, "size": size}
    return m, pos


def _d_icmp_echo(buf: bytes, pos: int, n: int):
    seq, is_reply, sent_at, data_size = _ICMP.unpack_from(buf, pos - 1)[1:]
    m = _new(IcmpEcho)
    m.__dict__ = {"seq": seq, "is_reply": is_reply != 0,
                  "sent_at": sent_at, "data_size": data_size}
    return m, pos + _ICMP.size - 1


def _d_segment(buf: bytes, pos: int, n: int):
    seq, ack, size = _SEG.unpack_from(buf, pos - 1)[1:]
    flags, pos = _d_str(buf, pos + _SEG.size - 1, n)
    payload, pos = _d_any(buf, pos, n)
    m = _new(Segment)
    m.__dict__ = {"seq": seq, "ack": ack, "flags": flags,
                  "payload": payload, "size": size}
    return m, pos


def _d_dht_put(buf: bytes, pos: int, n: int):
    (rid, ttl, raw, replicate,
     primary) = _DHT_PUT.unpack_from(buf, pos - 1)[1:]
    key, pos = _d_str(buf, pos + _DHT_PUT.size - 1, n)
    value, pos = _d_any(buf, pos, n)
    m = _new(DhtPut)
    m.__dict__ = {"rid": rid, "key": key, "value": value, "ttl": ttl,
                  "reply_to": _da(raw), "replicate": replicate,
                  "primary": primary != 0}
    return m, pos


def _d_dht_get(buf: bytes, pos: int, n: int):
    rid, raw = _DHT_GET.unpack_from(buf, pos - 1)[1:]
    key, pos = _d_str(buf, pos + _DHT_GET.size - 1, n)
    m = _new(DhtGet)
    m.__dict__ = {"rid": rid, "key": key, "reply_to": _da(raw)}
    return m, pos


def _d_dht_reply(buf: bytes, pos: int, n: int):
    rid, found = _DHT_REP.unpack_from(buf, pos - 1)[1:]
    key, pos = _d_str(buf, pos + _DHT_REP.size - 1, n)
    if pos + 2 > n:
        raise _trunc(2, pos, n)
    count = (buf[pos] << 8) | buf[pos + 1]
    pos += 2
    values = []
    for _ in range(count):
        v, pos = _d_any(buf, pos, n)
        values.append(v)
    m = _new(DhtReply)
    m.__dict__ = {"rid": rid, "key": key, "values": values,
                  "found": found != 0}
    return m, pos


def _d_vtcp_datagram(buf: bytes, pos: int, n: int):
    if pos + 3 > n:
        raise _trunc(3, pos, n)
    if buf[pos + 2] != T_VTCP_SEGMENT:
        raise DecodeError(f"vtcp datagram carries tag {buf[pos + 2]}, "
                          f"not a segment")
    seg, end = _d_segment(buf, pos + 3, n)
    return ((buf[pos] << 8) | buf[pos + 1], seg), end


def _d_none(buf: bytes, pos: int, n: int):
    return None, pos


def _d_top_str(buf: bytes, pos: int, n: int):
    return _d_str(buf, pos, n)


def _d_bytes(buf: bytes, pos: int, n: int):
    if pos + 4 > n:
        raise _trunc(4, pos, n)
    (k,) = _U32.unpack_from(buf, pos)
    pos, end = pos + 4, pos + 4 + k
    if end > n:
        raise _trunc(k, pos, n)
    return buf[pos:end], end


def _d_opaque(buf: bytes, pos: int, n: int):
    raw, pos = _d_bytes(buf, pos, n)
    try:
        return pickle.loads(raw), pos
    except Exception as exc:  # any unpickling failure is a decode failure
        raise DecodeError(f"malformed opaque payload: {exc!r}") from None


_DECODERS: list = [None] * 256
for _tag, _fn in {
    T_LINK_REQUEST: _d_link_request,
    T_LINK_REPLY: _d_link_reply,
    T_LINK_ERROR: _d_link_error,
    T_CLOSE: _d_close,
    T_PING_REQUEST: _d_ping_request,
    T_PING_REPLY: _d_ping_reply,
    T_CTM_REQUEST: _d_ctm_request,
    T_CTM_REPLY: _d_ctm_reply,
    T_IP_ENCAP: _d_ip_encap,
    T_FORWARD: _d_forward,
    T_ROUTED: _d_routed,
    T_VIRTUAL_IP: _d_virtual_ip,
    T_ICMP_ECHO: _d_icmp_echo,
    T_NONE: _d_none,
    T_STR: _d_top_str,
    T_BYTES: _d_bytes,
    T_OPAQUE: _d_opaque,
    T_VTCP_SEGMENT: _d_segment,
    T_DHT_PUT: _d_dht_put,
    T_DHT_GET: _d_dht_get,
    T_DHT_REPLY: _d_dht_reply,
    T_VTCP_DATAGRAM: _d_vtcp_datagram,
}.items():
    _DECODERS[_tag] = _fn


def _d_any(buf: bytes, pos: int, n: int):
    if pos >= n:
        raise _trunc(1, pos, n)
    fn = _DECODERS[buf[pos]]
    if fn is None:
        raise DecodeError(f"unknown type tag {buf[pos]}")
    return fn(buf, pos + 1, n)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

_ENC_BUF = bytearray()
_enc_buf_busy = False


def encode(msg: Any) -> bytes:
    """Serialize one protocol message into a versioned frame."""
    global _enc_buf_busy
    if _enc_buf_busy:          # reentrant encode: fall back to a fresh buffer
        out = bytearray(_VERSION_BYTE)
        _e_any(out, msg)
        return bytes(out)
    _enc_buf_busy = True
    try:
        out = _ENC_BUF
        del out[:]
        out += _VERSION_BYTE
        _e_any(out, msg)
        return bytes(out)
    finally:
        _enc_buf_busy = False


def encode_origin(src: bytes, dest: bytes, size: int, ttl: int,
                  payload: Any) -> bytes:
    """The frame a node with :func:`address_bytes` ``src`` launches toward
    ``dest``: exactly ``encode`` of the untraced ``exact`` ``RoutedPacket``
    that ``BrunetNode.send_over`` has stamped at its origin (``hops=1``,
    ``via=[src]``) — one struct for everything before the payload, no
    packet object."""
    out = bytearray(_ORIGIN.pack(WIRE_VERSION, T_ROUTED, src, dest, size,
                                 1, 0, _APPROACH_NONE, ttl, 1, 0, 1, src))
    _e_any(out, payload)
    return bytes(out)


def _coerce(buf: Any) -> bytes:
    if type(buf) is bytes:
        return buf
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return bytes(buf)
    raise DecodeError(f"not a buffer: {type(buf).__name__}")


def _check_version(buf: bytes) -> None:
    if len(buf) < 2:
        raise _trunc(2, 0, len(buf))
    if buf[0] != WIRE_VERSION:
        raise DecodeError(f"unsupported wire version {buf[0]} "
                          f"(expected {WIRE_VERSION})")


def _parse(buf: bytes, pos: int) -> Any:
    """Decode the one value starting at ``pos`` and running to the end of
    ``buf``; every failure is a :class:`DecodeError`."""
    n = len(buf)
    try:
        msg, pos = _d_any(buf, pos, n)
    except DecodeError:
        raise
    except _MALFORMED as exc:
        raise DecodeError(f"malformed frame: {exc}") from None
    if pos != n:
        raise DecodeError(f"{n - pos} trailing bytes after message")
    return msg


def decode(buf: Any) -> Any:
    """Inverse of :func:`encode`; raises :class:`DecodeError` on any
    malformed input (truncation, bad version, unknown tag, trailing
    bytes)."""
    if type(buf) is not bytes:
        buf = _coerce(buf)
    _check_version(buf)
    return _parse(buf, 1)


def decode_lazy(buf: Any) -> Any:
    """Like :func:`decode`, but a top-level RoutedPacket frame keeps its
    payload as an undecoded :class:`RawBody` slice.

    Transit hops route on the envelope alone and re-encode by splicing
    the payload bytes back; call :func:`materialize` at local delivery.
    A malformed *body* therefore surfaces at delivery, not in transit —
    exactly like a real router that only validates headers it forwards.
    """
    if type(buf) is not bytes:
        buf = _coerce(buf)
    _check_version(buf)
    if buf[1] != T_ROUTED:
        return decode(buf)
    n = len(buf)
    try:
        m, pos = _d_routed_env(buf, 2, n)
    except DecodeError:
        raise
    except _MALFORMED as exc:
        raise DecodeError(f"malformed frame: {exc}") from None
    if pos >= n:
        raise _trunc(1, pos, n)
    m.__dict__["payload"] = RawBody(buf, pos)
    return m


def materialize(payload: Any) -> Any:
    """Decode a deferred :class:`RawBody` payload (identity on anything
    else).  Raises :class:`DecodeError` on a malformed body."""
    if type(payload) is not RawBody:
        return payload
    return _parse(payload.buf, payload.off)


def _routed_head(buf: bytes, n: int):
    """Head of a top-level routed frame, for the two readers that stop
    before the via list (:func:`peek_header`, :func:`transit_view`):
    (the raw ``_RHDR`` fields, approach, trace)."""
    head = _RHDR.unpack_from(buf, 1)
    pos = 1 + _RHDR.size
    apc = head[6]
    if apc == _APPROACH_OTHER:
        approach, pos = _d_str(buf, pos, n)
    else:
        try:
            approach = _APPROACH_STR[apc]
        except IndexError:
            raise DecodeError(f"unknown approach code {apc}") from None
    if pos < n and not buf[pos]:
        return head, approach, None     # untraced: the common case, no call
    return head, approach, _d_trace(buf, pos, n)[0]


def peek_header(buf: Any) -> FrameHeader:
    """Parse only the routing header of a frame: version, type tag and —
    for RoutedPacket frames — src/dest, size, flags, ttl/hops and trace
    ids.  Never touches the via list or the payload, so the cost is
    independent of frame size.  Raises :class:`DecodeError` on anything
    malformed within the peeked region."""
    buf = _coerce(buf)
    _check_version(buf)
    tag = buf[1]
    if _DECODERS[tag] is None:
        raise DecodeError(f"unknown type tag {tag}")
    if tag != T_ROUTED:
        return FrameHeader(buf[0], tag)
    try:
        ((_, src, dest, size, exact, excl, _, ttl, hops),
         approach, trace) = _routed_head(buf, len(buf))
    except _StructError as exc:
        raise DecodeError(f"malformed frame: {exc}") from None
    return FrameHeader(buf[0], tag, _da(src), _da(dest), size, exact != 0,
                       excl != 0, approach, ttl, hops,
                       trace.trace_id if trace else None,
                       trace.parent if trace else None)


def transit_view(buf: bytes, mine: bytes) -> Optional[tuple]:
    """Header view of a received frame for the node whose
    :func:`address_bytes` are ``mine``: ``(dest, exclude_dest_link,
    approach, size, previous_hop, hops, via_count)`` when the frame is
    one a relay may forward as bytes with :func:`patch_forward`, else
    None — the caller then takes the object path through
    :func:`decode_lazy`, which also reports anything malformed.

    Forwardable means: a routed frame of this wire version, not
    addressed to this node (unless ``exclude_dest_link`` keeps it
    moving) and not sent by it, ``hops < ttl``, approach
    none/left/right, untraced, flag bytes 0 or 1 (anything else would
    not re-encode to the same bytes), and a complete via list with at
    least one payload byte after it.  The own-address test comes first,
    so a frame that has arrived pays one slice compare and no parse.
    """
    try:
        if buf[_O_DEST:_O_DEST + ADDRESS_BYTES] == mine \
                and not buf[_O_EXCLUDE]:
            return None
        if buf[0] != WIRE_VERSION or buf[1] != T_ROUTED:
            return None
        n = len(buf)
        ((_, src, dest, size, exact, excl, apc, ttl, hops),
         approach, trace) = _routed_head(buf, n)
    except (DecodeError, _StructError, IndexError):
        return None
    if (trace is not None or apc == _APPROACH_OTHER or exact > 1 or excl > 1
            or hops >= ttl or src == mine or n <= _O_VIA):
        return None
    count = (buf[_O_COUNT] << 8) | buf[_O_COUNT + 1]
    end = _O_VIA + count * ADDRESS_BYTES
    if end >= n or count == 0xFFFF:
        return None
    prev = _da(buf[end - ADDRESS_BYTES:end]) if count else None
    return _da(dest), excl == 1, approach, size, prev, hops, count


def deliver_view(buf: bytes, mine: bytes) -> Optional[tuple]:
    """``(previous_hop, hops, payload)`` when ``buf`` is a plain routed
    frame that has arrived at the node whose :func:`address_bytes` are
    ``mine`` and carries a tunnelled IP packet — the decoded ``IpEncap``,
    parsed in this one pass — else None: the caller then takes the
    object path (:func:`decode_lazy`, ``route``, :func:`materialize`),
    which delivers, drops and counts every other frame as always.

    Plain means what it does for :func:`transit_view`: this wire
    version, approach none/left/right, untraced, flag bytes 0 or 1,
    ``hops < ttl``, a complete via list.  The payload tag is read before
    anything is unpacked, so control frames pay a few byte tests; a body
    that is malformed or leaves trailing bytes is None too, and
    ``materialize`` reports it.
    """
    try:
        if (buf[0] != WIRE_VERSION or buf[1] != T_ROUTED
                or buf[_O_APPROACH] >= _APPROACH_OTHER or buf[_O_TRACE]):
            return None
        count = (buf[_O_COUNT] << 8) | buf[_O_COUNT + 1]
        end = _O_VIA + count * ADDRESS_BYTES
        if buf[end] != T_IP_ENCAP:
            return None
        _, _, dest, _, exact, excl, _, ttl, hops = _RHDR.unpack_from(buf, 1)
        if dest != mine or excl or exact > 1 or hops >= ttl:
            return None
        n = len(buf)
        payload, pos = _d_ip_encap(buf, end + 1, n)
    except _MALFORMED:
        return None
    if pos != n:
        return None
    return (_da(buf[end - ADDRESS_BYTES:end]) if count else None,
            hops, payload)


def patch_forward(buf: bytes, view: tuple, mine: bytes) -> bytes:
    """The frame the relay with :func:`address_bytes` ``mine`` sends on
    for a received frame ``buf`` whose :func:`transit_view` is ``view``:
    the same bytes with ``hops + 1``, ``via_count + 1`` and ``mine``
    appended to the via list — exactly what ``encode`` gives for the
    lazily decoded packet after ``BrunetNode.send_over`` has stamped
    it."""
    hops, count = view[-2:]
    end = _O_VIA + count * ADDRESS_BYTES
    return b"".join((buf[:_O_HOPS], _FWD_PATCH.pack(hops + 1, 0, count + 1),
                     buf[_O_VIA:end], mine, buf[end:]))
