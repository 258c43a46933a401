"""``frame_view`` agrees with ``decode`` on every frame it takes.

A node on a transport that carries frames reads keep-alives and routed
frames through one classifier, ``wire.frame_view``, and acts on its
fields without a message object.  That is only sound if every field is
the decoder's: for each frame in the corpus and each reading node,
``frame_view`` returns None or a kind whose fields equal what the object
path decodes from the same bytes — ``decode`` for a keep-alive and an
arrived tunnelled IP packet, ``decode_lazy`` for a frame in transit,
whose payload a relay forwards unread on either path.

The corpus: frames of every round-trip generator (extra routed ones, so
that each routed kind is taken often), the keep-alive mutants, and every
truncation and single-byte flip (``^ 0x01`` and ``^ 0xFF``) of each
frame the classifier takes.  A routed frame is read by the node it is
addressed to, the node that sent it and an unrelated one.
"""

import random
from collections import Counter

from repro.brunet.messages import IpEncap, PingReply, PingRequest, RoutedPacket
from repro.wire import codec, decode, decode_lazy, encode, frame_view

from tests.wire.test_codec_roundtrip import GENERATORS, _sample_messages
from tests.wire.test_keepalive_frames import _keepalive_mutants

OUTSIDER = bytes(range(20))


def _readers(frame: bytes) -> list[bytes]:
    """The addresses a routed frame names (dest, src), then an outsider."""
    if frame[1:2] != bytes((codec.T_ROUTED,)):
        return [OUTSIDER]
    dest = frame[codec._O_DEST:codec._O_DEST + codec.ADDRESS_BYTES]
    return [dest, frame[2:2 + codec.ADDRESS_BYTES], OUTSIDER]


def _agrees(frame: bytes, mine: bytes):
    """The kind ``frame_view`` gives ``frame`` read at ``mine`` (None if it
    declines), after checking its fields against the object path."""
    view = frame_view(frame, mine)
    if view is None:
        return None
    kind, fields = view[0], view[1:]
    if kind == codec.T_PING_REQUEST:
        msg = decode(frame)
        assert type(msg) is PingRequest
        assert fields == (msg.token, msg.sender_addr)
    elif kind == codec.T_PING_REPLY:
        msg = decode(frame)
        assert type(msg) is PingReply
        assert fields == (msg.token, msg.sender_addr, msg.observed_uri,
                          msg.known)
    elif kind in (codec.T_ROUTED, codec.T_IP_ENCAP):
        pkt = (decode_lazy if kind == codec.T_ROUTED else decode)(frame)
        assert type(pkt) is RoutedPacket
        assert pkt.trace is None and pkt.hops < pkt.ttl
        assert pkt.approach in (None, "left", "right")
        prev = pkt.via[-1] if pkt.via else None
        here = codec.address_bytes(pkt.dest) == mine
        if kind == codec.T_ROUTED:
            assert not here or pkt.exclude_dest_link
            assert codec.address_bytes(pkt.src) != mine
            assert fields == (pkt.dest, pkt.exclude_dest_link, pkt.approach,
                              pkt.size, prev, pkt.hops, len(pkt.via))
            # plain: the lazily decoded packet re-encodes to these bytes
            assert encode(pkt) == frame
        else:
            assert here and not pkt.exclude_dest_link
            assert type(pkt.payload) is IpEncap
            assert fields == (prev, pkt.hops, pkt.payload)
    else:
        raise AssertionError(f"unknown kind {kind} for {frame!r}")
    return kind


def _damaged(frame: bytes):
    """Every truncation and single-byte flip of ``frame``."""
    for cut in range(len(frame)):
        yield frame[:cut]
    for at in range(len(frame)):
        for bit in (0x01, 0xFF):
            flipped = bytearray(frame)
            flipped[at] ^= bit
            yield bytes(flipped)


def test_frame_view_agrees_with_decode():
    rng = random.Random(3)
    msgs = _sample_messages(seed=3, per_type=25)
    # enough routed frames that each routed kind is taken often
    msgs += [GENERATORS[RoutedPacket](rng) for _ in range(300)]
    frames = [encode(msg) for msg in msgs] + _keepalive_mutants()
    kinds: Counter = Counter()
    damaged_kinds: Counter = Counter()
    for frame in frames:
        for mine in _readers(frame):
            kind = _agrees(frame, mine)
            kinds[kind] += 1
            if kind is None:
                continue
            for bad in _damaged(frame):
                damaged_kinds[_agrees(bad, mine)] += 1
    # every kind is taken, intact and damaged, and declined too
    for seen in (kinds, damaged_kinds):
        assert all(seen[kind] > 5 for kind in (
            None, codec.T_PING_REQUEST, codec.T_PING_REPLY, codec.T_ROUTED,
            codec.T_IP_ENCAP)), seen

