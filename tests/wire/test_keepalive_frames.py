"""Keep-alive frames on the fixed-layout byte path.

A transport that carries frames sends ``PingRequest`` / ``PingReply`` as
``ping_frame`` / ``ping_reply_frame`` bytes and its node reads them with
``frame_view`` — no message object, no ``encode``, no ``decode``.  That
is only sound if the byte path is the codec, exactly:

* ``ping_frame`` and ``ping_reply_frame`` give ``encode``'s bytes for any
  field values (property);
* ``frame_view`` returns ``decode``'s fields for either kind, and None
  exactly when ``decode`` raises or the frame is no keep-alive — over the
  round-trip corpus, random corruptions of it and structure-aware
  keep-alive mutants (differential);
* the URI cache the reply's span comes from stays bounded whatever
  source endpoints peers choose.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.messages import PingReply, PingRequest
from repro.brunet.uri import Uri
from repro.phys.endpoints import Endpoint
from repro.wire import (
    DecodeError,
    address_bytes,
    codec,
    decode,
    encode,
    frame_view,
    ping_frame,
    ping_reply_frame,
)

from tests.wire.test_codec_roundtrip import GENERATORS, _sample_messages

HEAD = 30           # version, tag, token, sender: a whole PingRequest
#: the reading node's address: the keep-alive kinds do not depend on it
ME = address_bytes(BrunetAddress(3))


def _request_fields(frame: bytes):
    """``frame_view``'s fields for a ``PingRequest``, else None."""
    view = frame_view(frame, ME)
    return view[1:] if view and view[0] == codec.T_PING_REQUEST else None


def _reply_fields(frame: bytes):
    """``frame_view``'s fields for a ``PingReply``, else None."""
    view = frame_view(frame, ME)
    return view[1:] if view and view[0] == codec.T_PING_REPLY else None


tokens = st.integers(0, (1 << 64) - 1)
addresses = st.integers(0, ADDRESS_SPACE - 1).map(BrunetAddress)
endpoints = st.builds(Endpoint, st.text(max_size=80), st.integers(0, 0xFFFF))


@settings(max_examples=300, deadline=None)
@given(tokens, addresses)
def test_ping_frame_is_encode_of_the_request(token, addr):
    frame = ping_frame(token, address_bytes(addr))
    assert frame == encode(PingRequest(token, addr))
    assert _request_fields(frame) == (token, addr)


@settings(max_examples=300, deadline=None)
@given(tokens, addresses, endpoints, st.booleans())
def test_ping_reply_frame_is_encode_of_the_reply(token, addr, observed, known):
    uri = Uri("udp", observed)
    for _ in range(2):                  # a URI span built, then one cached
        frame = ping_reply_frame(token, address_bytes(addr), observed, known)
        assert frame == encode(PingReply(token, addr, uri, known))
        assert _reply_fields(frame) == (token, addr, uri, known)


# ---------------------------------------------------------------------------
# the differential corpus
# ---------------------------------------------------------------------------

def _keepalive_mutants(seed: int = 0) -> list[bytes]:
    """Structure-aware damage to keep-alive frames: every truncation, one
    trailing byte, a version other than 2, a URI length running past the
    end, invalid UTF-8 in the URI, and ``known`` bytes 2–255 (which
    ``decode`` reads as True)."""
    rng = random.Random(seed)
    requests = [encode(GENERATORS[PingRequest](rng)) for _ in range(2)]
    replies = [encode(GENERATORS[PingReply](rng)) for _ in range(2)]
    out = []
    for frame in requests + replies:
        out += [frame[:cut] for cut in range(len(frame))]
        out.append(frame + bytes([rng.randrange(256)]))
        out += [bytes([v]) + frame[1:] for v in (0, 1, 3, 255)]
    for frame in replies:
        tlen = HEAD                     # u16 length of "udp"
        ilen = HEAD + 2 + 3             # u16 length of the IP string
        for at in (tlen, ilen):
            for length in (len(frame), 0xFFFF):
                out.append(frame[:at] + length.to_bytes(2, "big")
                           + frame[at + 2:])
        ip = ilen + 2
        out.append(frame[:ip] + b"\xff" + frame[ip + 1:])
        out.append(frame[:tlen + 2] + b"\xc3(" + frame[tlen + 4:])
        out += [frame[:-1] + bytes([k]) for k in range(256)]
    return out


def _corpus() -> list[bytes]:
    rng = random.Random(7)
    frames = []
    for msg in _sample_messages(seed=7, per_type=6):
        buf = encode(msg)
        frames.append(buf)
        frames.append(buf[:rng.randrange(len(buf))])
        at = rng.randrange(len(buf))
        frames.append(buf[:at] + bytes([(buf[at] + rng.randrange(1, 256))
                                        % 256]) + buf[at + 1:])
    return frames + _keepalive_mutants()


def _decoded(frame: bytes):
    try:
        return decode(frame)
    except DecodeError:
        return None


def test_the_views_agree_with_decode():
    corpus = _corpus()
    taken = {PingRequest: 0, PingReply: 0}
    for frame in corpus:
        codec._URI_DEC.clear()          # the reply view's full parse ...
        cold = _request_fields(frame), _reply_fields(frame)
        msg = _decoded(frame)
        warm = _request_fields(frame), _reply_fields(frame)  # ... cache hit
        want_request = want_reply = None
        if type(msg) is PingRequest:
            want_request = (msg.token, msg.sender_addr)
        elif type(msg) is PingReply:
            want_reply = (msg.token, msg.sender_addr, msg.observed_uri,
                          msg.known)
        assert cold == warm == (want_request, want_reply), frame
        if type(msg) in taken:
            taken[type(msg)] += 1
    # both views accepted frames, the mutants' known bytes 2-255 among them
    assert taken[PingRequest] > 10 and taken[PingReply] > 500


def test_known_bytes_past_one_read_as_true():
    frame = encode(PingReply(9, BrunetAddress(5), Uri.udp("10.0.0.1", 7),
                             False))
    for k in range(2, 256):
        view = _reply_fields(frame[:-1] + bytes([k]))
        assert view is not None and view[3] is True
    assert _reply_fields(frame)[3] is False


# ---------------------------------------------------------------------------
# the reply's URI span
# ---------------------------------------------------------------------------

def test_reply_frames_keep_the_uri_cache_bounded_over_many_source_endpoints():
    """Peers choose their source endpoints, and a reply's observed URI span
    comes from the URI cache: 5 000 of them, each answered as a known and
    an unknown peer, leave at most ``_CACHE_MAX`` spans, and a URI past
    ``_SPAN_MAX`` is encoded but never cached."""
    me = address_bytes(BrunetAddress(3))
    codec._URI_ENC.clear()
    for port in range(10_000, 15_000):
        observed = Endpoint("127.0.0.1", port)
        for known in (True, False):
            frame = ping_reply_frame(1, me, observed, known)
            assert _reply_fields(frame)[2:] == (Uri("udp", observed), known)
            assert len(codec._URI_ENC) <= codec._CACHE_MAX
    assert codec._URI_ENC
    codec._URI_ENC.clear()
    long_ip = Endpoint("x" * codec._SPAN_MAX, 9)
    frame = ping_reply_frame(1, me, long_ip, True)
    assert frame == encode(PingReply(1, BrunetAddress(3),
                                     Uri("udp", long_ip), True))
    assert codec._URI_ENC == {}
