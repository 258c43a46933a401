"""SimTransport: the simulator-backed transport.

Wraps ``Host.bind_udp`` / ``Internet.send`` delivery.  Two wire modes
(selected by ``BrunetConfig.wire_mode``):

``"reference"``
    Today's behaviour, bit-for-bit: the message object travels by
    reference and is charged the caller's paper-constant ``size_hint``
    plus :data:`~repro.phys.packet.HEADER_BYTES`.  Same-seed runs stay
    byte-identical to the pre-codec simulator.

``"codec"``
    Full serialization: the datagram carries encoded bytes and is charged
    ``len(wire.encode(msg))`` plus real UDP/IP headers; the receive path
    decodes (or counts ``wire.decode_error`` and drops) — except an
    untraced routed frame, which goes to the node as bytes, exactly as
    :class:`~repro.transport.udp.UdpTransport` delivers it, so origins
    launch and transit hops patch and resend through
    :meth:`SimTransport.send_frame` (``carries_frames`` is True in this
    mode only).  The simulator then exercises the exact byte paths the
    UDP transport uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.phys.endpoints import Endpoint
from repro.phys.packet import Datagram
from repro.transport.base import ReceiveHandler, Transport
from repro.wire import codec

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host, UdpSocket
    from repro.sim.engine import Simulator

WIRE_MODES = ("reference", "codec")


class SimTransport(Transport):
    """Datagram endpoint on a simulated host."""

    def __init__(self, sim: "Simulator", host: "Host", port: int,
                 wire_mode: str = "reference", name: str = ""):
        if wire_mode not in WIRE_MODES:
            raise ValueError(f"unknown wire_mode {wire_mode!r} "
                             f"(expected one of {WIRE_MODES})")
        self.sim = sim
        self.host = host
        self.port = port
        self.wire_mode = wire_mode
        self.carries_frames = wire_mode == "codec"
        self.name = name or host.name
        self.sock: Optional["UdpSocket"] = None
        self._handler: Optional[ReceiveHandler] = None
        metrics = sim.obs.metrics
        self._m_decode_err = metrics.counter("wire.decode_error",
                                             node=self.name)
        if wire_mode == "codec":
            self._m_tx_bytes = metrics.counter("wire.tx_bytes",
                                               node=self.name)
            self._m_rx_bytes = metrics.counter("wire.rx_bytes",
                                               node=self.name)
            self._m_opaque = metrics.counter("wire.opaque_frames",
                                             node=self.name)

    # ------------------------------------------------------------------
    @property
    def local_endpoint(self) -> Endpoint:
        return Endpoint(self.host.ip, self.port)

    def open(self, handler: ReceiveHandler) -> Endpoint:
        if self.sock is not None:
            raise RuntimeError(f"{self.name}: transport already open")
        if self.port in self.host.sockets:
            self.port = self.host.ephemeral_port()
        self._handler = handler
        self.sock = self.host.bind_udp(self.port, handler)
        if self.wire_mode == "codec":
            self.sock.dgram_handler = self._on_codec_dgram
        return self.local_endpoint

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    # ------------------------------------------------------------------
    def send(self, dst: Endpoint, msg: Any, size_hint: int = 0) -> None:
        sock = self.sock
        if sock is None or sock.closed:
            return
        if self.wire_mode == "reference":
            sock.sent += 1
            host = self.host
            host.internet.send(
                host, Datagram(sock.endpoint, dst, msg, size=size_hint))
            return
        # codec: the datagram carries real bytes; causal context must ride
        # the datagram explicitly since the payload is now opaque
        before = codec.opaque_frames
        buf = codec.encode(msg)
        if codec.opaque_frames != before:
            self._m_opaque.inc(codec.opaque_frames - before)
        self._m_tx_bytes.inc(len(buf))
        sock.send(dst, buf, size=len(buf), header=codec.UDP_IP_OVERHEAD,
                  trace=getattr(msg, "trace", None))

    def send_frame(self, dst: Endpoint, frame: bytes) -> None:
        sock = self.sock
        if sock is None or sock.closed:
            return
        self._m_tx_bytes.inc(len(frame))
        sock.send(dst, frame, size=len(frame), header=codec.UDP_IP_OVERHEAD)

    # ------------------------------------------------------------------
    def _on_codec_dgram(self, dgram: "Datagram") -> None:
        """Codec-mode delivery.  An untraced routed frame goes to the
        node as bytes (the byte paths, see
        :mod:`repro.transport.base`).  Everything else is decoded here
        (payloads of routed frames stay as zero-copy
        :class:`~repro.wire.RawBody` slices until local delivery), gets
        its post-transit trace context restored, and is dispatched.
        Malformed frames are counted and dropped — never raised into the
        simulation event loop."""
        buf = dgram.payload
        if (dgram.trace is None and type(buf) is bytes and len(buf) > 1
                and buf[1] == codec.T_ROUTED):
            self._m_rx_bytes.inc(len(buf))
            self._handler(buf, dgram.src, dgram.size)
            return
        try:
            msg = codec.decode_lazy(buf)
        except codec.DecodeError:
            self._m_decode_err.inc()
            if dgram.trace is not None:
                # terminate the causal chain here: without this the traced
                # packet's last span stays the physical transit and the
                # post-hoc span tree ends in a dangling branch with no
                # explanation of where the packet went
                spans = self.sim.obs.spans
                spans.hop(dgram.trace, "wire.decode_drop", self.name,
                          self.sim.now, bytes=len(buf))
                spans.end_trace(dgram.trace.trace_id, self.sim.now,
                                decode_error=True)
            return
        self._m_rx_bytes.inc(len(buf))
        if dgram.trace is not None and getattr(msg, "trace", None) is not None:
            # the transit span re-parented the sender's ref at delivery;
            # adopt its ids so the receiver's hop chain nests under the
            # physical transit exactly as in reference mode
            msg.trace.trace_id = dgram.trace.trace_id
            msg.trace.parent = dgram.trace.parent
        self._handler(msg, dgram.src, dgram.size)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SimTransport {self.name} {self.local_endpoint} "
                f"mode={self.wire_mode}>")
