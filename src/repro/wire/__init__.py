"""Deterministic wire-format codec for WOW protocol messages.

The simulator historically passed Python message objects by reference and
charged ``size`` from config constants; the Brunet/IPOP systems the paper
describes exchange real serialized datagrams over UDP.  This package is
the bridge: a compact binary encoding (version byte, type tag,
length-prefixed fields) for every protocol message, so that

* the same ``BrunetNode``/``IpopRouter`` code runs over real sockets
  (:class:`repro.transport.udp.UdpTransport`) or the simulator
  (:class:`repro.transport.sim.SimTransport`);
* byte accounting can charge the real ``len(encode(msg))`` instead of
  paper constants — see ``BrunetConfig.wire_mode``.

Keep-alives and routed packets also have fixed-layout byte paths that a
transport carrying frames uses without building a message object:
``ping_frame`` / ``ping_reply_frame`` and ``encode_origin`` build frames,
``frame_view`` classifies a received one in a single pass, and
``patch_forward`` forwards a frame in transit.  Every other frame is
decoded whole by ``decode``.  ``decode_lazy``, ``materialize`` and
``peek_header`` are inert aliases kept for the frozen benchmark harness.

Decode failures raise the typed :class:`DecodeError`; the node (and the
simulated transport, for a traced datagram) counts them
(``wire.decode_error``) and drops the datagram instead of letting the
exception escape the event loop.
"""

from repro.wire.codec import (
    UDP_IP_OVERHEAD,
    DecodeError,
    WIRE_VERSION,
    address_bytes,
    decode,
    decode_lazy,
    encode,
    encode_origin,
    frame_view,
    materialize,
    patch_forward,
    peek_header,
    ping_frame,
    ping_reply_frame,
)
from repro.wire.sizing import encap_overhead

__all__ = [
    "UDP_IP_OVERHEAD",
    "WIRE_VERSION",
    "DecodeError",
    "address_bytes",
    "decode",
    "decode_lazy",
    "encode",
    "encode_origin",
    "frame_view",
    "materialize",
    "patch_forward",
    "peek_header",
    "ping_frame",
    "ping_reply_frame",
    "encap_overhead",
]
