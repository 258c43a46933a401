"""The decode names the frozen benchmark harness still imports.

``decode_lazy`` and ``peek_header`` are ``decode`` under other names and
``materialize`` is the identity, the same objects on ``repro.wire`` as
on ``repro.wire.codec``.  These tests hold the harness's
view of them to what it relied on: a non-routed frame decodes to the
message it encodes, a truncated frame raises
:class:`~repro.wire.DecodeError` and never mis-parses, and materializing
a decoded object gives it back unchanged.
"""

import random

import repro.wire as wire_pkg
from repro.brunet.messages import RoutedPacket
from repro.wire import (DecodeError, codec, decode_lazy, encode, materialize,
                        peek_header)
from tests.wire.test_codec_roundtrip import GENERATORS, _sample_messages


def test_frozen_harness_names_are_inert_aliases():
    assert codec.decode_lazy is codec.peek_header is codec.decode
    for name in ("decode", "decode_lazy", "materialize", "peek_header"):
        assert getattr(wire_pkg, name) is getattr(codec, name)


def test_peek_every_truncation_raises_decode_error():
    for msg in _sample_messages(seed=5, per_type=3):
        buf = encode(msg)
        full = peek_header(buf)
        for cut in range(len(buf)):
            try:
                hdr = peek_header(buf[:cut])
            except DecodeError:
                continue
            # a truncated frame that still parses must parse to the
            # true frame, never to a mis-parse
            assert hdr == full, f"mis-parse at cut={cut}"


def test_lazy_decode_delegates_non_routed_frames():
    rng = random.Random(37)
    for msg_type, gen in GENERATORS.items():
        if msg_type is RoutedPacket:
            continue
        msg = gen(rng)
        assert decode_lazy(encode(msg)) == msg


def test_materialize_is_identity_on_decoded_objects():
    msg = _sample_messages(seed=8, per_type=1)[0]
    assert materialize(msg) is msg
    assert materialize(None) is None
