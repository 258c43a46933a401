"""Header-only peek and zero-copy lazy decode.

``peek_header`` reads src/dest/ttl without touching the via list or
payload (it shares that parse of the envelope with ``decode`` and
``decode_lazy``; ``wire.frame_view``, which a relay forwards on, is
tested in ``tests/wire/test_frame_view.py`` and
``tests/brunet/test_transit_cut_through.py``).  ``decode_lazy`` parses
only the routing envelope of a RoutedPacket and leaves the body as a
:class:`~repro.wire.RawBody` slice that re-encodes by splicing and
materializes (or fails with the typed error) only at local delivery.

The fuzz requirement mirrors the full-decode one: truncation or
corruption at *every* byte offset must either parse or raise
:class:`~repro.wire.DecodeError` — never crash, never mis-parse the
header of a well-formed frame.
"""

import random

import pytest

from repro.brunet.messages import RoutedPacket
from repro.wire import (
    DecodeError,
    FrameHeader,
    RawBody,
    WIRE_VERSION,
    decode,
    decode_lazy,
    encode,
    materialize,
    peek_header,
)
from tests.wire.test_codec_roundtrip import GENERATORS, _sample_messages


# ---------------------------------------------------------------------------
# agreement with full decode
# ---------------------------------------------------------------------------

def test_peek_matches_full_decode_on_routed_frames():
    rng = random.Random(31)
    gen = GENERATORS[RoutedPacket]
    for _ in range(200):
        pkt = gen(rng)
        hdr = peek_header(encode(pkt))
        assert hdr.version == WIRE_VERSION
        assert hdr.src == pkt.src
        assert hdr.dest == pkt.dest
        assert hdr.size == pkt.size
        assert hdr.exact == pkt.exact
        assert hdr.exclude_dest_link == pkt.exclude_dest_link
        assert hdr.approach == pkt.approach
        assert hdr.ttl == pkt.ttl
        assert hdr.hops == pkt.hops
        if pkt.trace is None:
            assert hdr.trace_id is None and hdr.trace_parent is None
        else:
            assert hdr.trace_id == pkt.trace.trace_id
            assert hdr.trace_parent == pkt.trace.parent


def test_peek_on_non_routed_frames_fills_only_version_and_tag():
    rng = random.Random(32)
    for msg_type, gen in GENERATORS.items():
        if msg_type is RoutedPacket:
            continue
        hdr = peek_header(encode(gen(rng)))
        assert isinstance(hdr, FrameHeader)
        assert hdr.version == WIRE_VERSION
        assert hdr.src is None and hdr.dest is None and hdr.ttl is None


def test_peek_cost_is_independent_of_payload():
    """The header parse must not walk the via list or payload: a frame
    with a huge body peeks identically to its header-only twin."""
    rng = random.Random(33)
    small = GENERATORS[RoutedPacket](rng)
    big = RoutedPacket(src=small.src, dest=small.dest,
                       payload=b"\x5a" * 200_000, size=small.size,
                       exact=small.exact,
                       exclude_dest_link=small.exclude_dest_link,
                       approach=small.approach, ttl=small.ttl,
                       hops=small.hops, via=list(small.via),
                       trace=small.trace)
    hs, hb = peek_header(encode(small)), peek_header(encode(big))
    assert hs.src == hb.src and hs.dest == hb.dest and hs.ttl == hb.ttl


# ---------------------------------------------------------------------------
# fuzz: truncation and corruption at every byte offset
# ---------------------------------------------------------------------------

def test_peek_every_truncation_raises_decode_error():
    for msg in _sample_messages(seed=5, per_type=3):
        buf = encode(msg)
        full = peek_header(buf)
        for cut in range(len(buf)):
            try:
                hdr = peek_header(buf[:cut])
            except DecodeError:
                continue
            # a successful peek of a truncated frame is only acceptable
            # when the cut lies beyond the peeked region — the header it
            # returns must then be the true header, never a mis-parse
            assert hdr == full, f"mis-parse at cut={cut}"


def test_peek_every_single_byte_corruption_is_contained():
    rng = random.Random(6)
    for msg in _sample_messages(seed=6, per_type=2):
        buf = bytearray(encode(msg))
        for off in range(len(buf)):
            corrupt = bytearray(buf)
            corrupt[off] = (corrupt[off] + 1 + rng.randrange(255)) % 256
            try:
                hdr = peek_header(bytes(corrupt))
            except DecodeError:
                continue  # the only acceptable exception
            assert isinstance(hdr, FrameHeader)


def test_peek_rejects_bad_version_unknown_tag_and_non_buffers():
    buf = encode(_sample_messages(seed=7, per_type=1)[0])
    with pytest.raises(DecodeError, match="version"):
        peek_header(bytes([WIRE_VERSION + 1]) + buf[1:])
    with pytest.raises(DecodeError, match="tag"):
        peek_header(bytes([WIRE_VERSION, 255]))
    with pytest.raises(DecodeError):
        peek_header(object())
    with pytest.raises(DecodeError):
        peek_header(b"")


# ---------------------------------------------------------------------------
# lazy decode: RawBody splice and deferred materialization
# ---------------------------------------------------------------------------

def test_lazy_decode_envelope_matches_and_body_materializes():
    rng = random.Random(34)
    gen = GENERATORS[RoutedPacket]
    for _ in range(100):
        pkt = gen(rng)
        buf = encode(pkt)
        lazy = decode_lazy(buf)
        assert lazy.src == pkt.src and lazy.dest == pkt.dest
        assert lazy.via == pkt.via and lazy.hops == pkt.hops
        assert isinstance(lazy.payload, RawBody)
        assert materialize(lazy.payload) == pkt.payload
        # full agreement after materialization
        lazy.payload = materialize(lazy.payload)
        assert lazy == decode(buf)


def test_lazy_reencode_splices_raw_body_byte_identically():
    rng = random.Random(35)
    gen = GENERATORS[RoutedPacket]
    for _ in range(50):
        pkt = gen(rng)
        buf = encode(pkt)
        assert encode(decode_lazy(buf)) == buf


def test_lazy_reencode_after_hop_mutation_only_changes_the_header():
    """The transit pattern: bump hops/via, re-encode without ever decoding
    the body.  The re-encoded frame must equal a reference re-encode of
    the fully-decoded, identically-mutated packet."""
    rng = random.Random(36)
    for _ in range(50):
        pkt = GENERATORS[RoutedPacket](rng)
        buf = encode(pkt)
        lazy = decode_lazy(buf)
        ref = decode(buf)
        for p in (lazy, ref):
            p.hops += 1
            p.via.append(pkt.src)
        assert encode(lazy) == encode(ref)


def test_lazy_decode_delegates_non_routed_frames():
    rng = random.Random(37)
    for msg_type, gen in GENERATORS.items():
        if msg_type is RoutedPacket:
            continue
        msg = gen(rng)
        assert decode_lazy(encode(msg)) == msg


def test_corrupt_body_defers_failure_to_materialize():
    """Transit hops must be able to forward a frame whose payload is
    garbage; the typed error surfaces only at delivery."""
    rng = random.Random(38)
    deferred = 0
    for _ in range(200):
        pkt = GENERATORS[RoutedPacket](rng)
        if pkt.payload is None:
            continue
        buf = bytearray(encode(pkt))
        # find where the body starts: everything after the envelope
        body_off = len(buf) - len(encode(pkt.payload)[1:])
        off = rng.randrange(body_off, len(buf))
        buf[off] = (buf[off] + 1 + rng.randrange(255)) % 256
        try:
            lazy = decode_lazy(bytes(buf))
        except DecodeError:
            continue  # corruption reached a length field the splice reads
        assert isinstance(lazy.payload, RawBody)
        try:
            materialize(lazy.payload)
        except DecodeError:
            deferred += 1
    # most corruptions must have survived transit and failed at delivery
    assert deferred > 50


def test_raw_body_equality_and_len():
    pkt = GENERATORS[RoutedPacket](random.Random(39))
    if pkt.payload is None:
        pkt.payload = pkt.src
    buf = encode(pkt)
    a, b = decode_lazy(buf).payload, decode_lazy(bytes(buf)).payload
    assert a == b
    assert len(a) == len(b) > 0
    assert bytes(a.raw) == bytes(b.raw)


def test_materialize_is_identity_on_decoded_objects():
    msg = _sample_messages(seed=8, per_type=1)[0]
    assert materialize(msg) is msg
    assert materialize(None) is None
