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
    ``len(wire.encode(msg))`` plus real UDP/IP headers.  The receive path
    counts each datagram and hands it to the node as the received bytes,
    exactly as :class:`~repro.transport.udp.UdpTransport` delivers it, so
    the node classifies it with one :func:`repro.wire.frame_view` call and
    decodes the rest itself; origins launch, transit hops patch and
    resend, and keep-alives are built and read as fixed-layout frames
    through :meth:`SimTransport.send_frame` (``carries_frames`` is True in
    this mode only).  The simulator then exercises the exact byte paths
    the UDP transport uses.  Only a traced datagram is decoded here (or
    counted on ``wire.decode_error`` and dropped), so that the message
    adopts the ids of its physical-transit span.
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
        sock.sent += 1
        self._m_tx_bytes.value += len(buf)
        dgram = Datagram(sock.endpoint, dst, buf, size=len(buf),
                         header=codec.UDP_IP_OVERHEAD)
        dgram.trace = getattr(msg, "trace", None)
        host = self.host
        host.internet.send(host, dgram)

    def send_frame(self, dst: Endpoint, frame: bytes) -> None:
        sock = self.sock
        if sock is None or sock.closed:
            return
        sock.sent += 1
        self._m_tx_bytes.value += len(frame)
        host = self.host
        host.internet.send(host, Datagram(sock.endpoint, dst, frame,
                                          size=len(frame),
                                          header=codec.UDP_IP_OVERHEAD))

    # ------------------------------------------------------------------
    def _on_codec_dgram(self, dgram: "Datagram") -> None:
        """Codec-mode delivery: count the datagram, then hand an untraced
        one to the node as the received bytes (the node decodes it, see
        :mod:`repro.transport.base`).  A traced one is decoded here, where
        the physical-transit span it must adopt is known; one that does
        not decode is counted and dropped, its trace ended — never raised
        into the simulation event loop."""
        buf = dgram.payload
        self._m_rx_bytes.value += len(buf)
        trace = dgram.trace
        if trace is None:
            self._handler(buf, dgram.src, dgram.size)
            return
        try:
            msg = codec.decode(buf)
        except codec.DecodeError:
            self._m_decode_err.inc()
            # terminate the causal chain here: without this the traced
            # packet's last span stays the physical transit and the
            # post-hoc span tree ends in a dangling branch with no
            # explanation of where the packet went
            spans = self.sim.obs.spans
            spans.hop(trace, "wire.decode_drop", self.name, self.sim.now,
                      bytes=len(buf))
            spans.end_trace(trace.trace_id, self.sim.now, decode_error=True)
            return
        if getattr(msg, "trace", None) is not None:
            # the transit span re-parented the sender's ref at delivery;
            # adopt its ids so the receiver's hop chain nests under the
            # physical transit exactly as in reference mode
            msg.trace.trace_id = trace.trace_id
            msg.trace.parent = trace.parent
        self._handler(msg, dgram.src, dgram.size)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SimTransport {self.name} {self.local_endpoint} "
                f"mode={self.wire_mode}>")
