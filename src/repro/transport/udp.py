"""UdpTransport: real datagrams over asyncio UDP sockets.

Every outbound message is framed by :mod:`repro.wire` (version byte, type
tag, length-prefixed fields) and handed to the OS; every inbound datagram
is decoded back into the protocol object the node layer expects — except
a routed frame, which goes to the node as received bytes so that a
transit hop can patch and resend it through :meth:`UdpTransport.send_frame`
without a decode or an encode, and a destination can take a tunnelled
IP packet out of it in one pass (the node decodes the rest itself);
frames the node launches as bytes leave through ``send_frame`` too.  A
frame that fails to decode increments the ``wire.decode_error`` counter
and is dropped — malformed traffic never raises into the event loop.

The reported receive ``size`` is ``len(frame) + UDP_IP_OVERHEAD`` so that
byte accounting (``conn.bytes_sent`` etc.) matches what a codec-mode
:class:`~repro.transport.sim.SimTransport` charges for the same message —
the measurable half of the sim-vs-live equivalence argument.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro.phys.endpoints import Endpoint
from repro.transport.base import ReceiveHandler, Transport
from repro.transport.runtime import RealtimeKernel
from repro.wire import codec


class _Protocol(asyncio.DatagramProtocol):
    """Thin adapter: asyncio callbacks -> UdpTransport methods."""

    def __init__(self, transport_obj: "UdpTransport"):
        self.owner = transport_obj

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        # OS-level socket errors (e.g. ICMP port-unreachable from a peer
        # process that just died — constant background noise in a swarm
        # under churn) are not codec failures: keep them out of
        # wire.decode_error, which the inspector reads as codec health
        self.owner._m_socket_err.inc()


class UdpTransport(Transport):
    """One node's live UDP endpoint (localhost or LAN)."""

    carries_frames = True

    def __init__(self, kernel: RealtimeKernel, name: str = ""):
        self.kernel = kernel
        self.name = name
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._handler: Optional[ReceiveHandler] = None
        self._endpoint: Optional[Endpoint] = None
        metrics = kernel.obs.metrics
        self._m_decode_err = metrics.counter("wire.decode_error", node=name)
        self._m_socket_err = metrics.counter("wire.socket_error", node=name)
        self._m_tx_bytes = metrics.counter("wire.tx_bytes", node=name)
        self._m_rx_bytes = metrics.counter("wire.rx_bytes", node=name)
        self._m_opaque = metrics.counter("wire.opaque_frames", node=name)
        self.sent = 0
        self.received = 0

    @classmethod
    async def create(cls, kernel: RealtimeKernel, ip: str = "127.0.0.1",
                     port: int = 0, name: str = "") -> "UdpTransport":
        """Bind a real UDP socket on ``(ip, port)`` (0 = OS-assigned)."""
        self = cls(kernel, name=name)
        transport, _ = await kernel.loop.create_datagram_endpoint(
            lambda: _Protocol(self), local_addr=(ip, port))
        self._transport = transport
        sockname = transport.get_extra_info("sockname")
        self._endpoint = Endpoint(sockname[0], sockname[1])
        return self

    # ------------------------------------------------------------------
    @property
    def local_endpoint(self) -> Endpoint:
        if self._endpoint is None:
            raise RuntimeError("transport not bound yet (use UdpTransport.create)")
        return self._endpoint

    def open(self, handler: ReceiveHandler) -> Endpoint:
        """Start dispatching inbound frames into ``handler``.  The socket
        itself was bound by :meth:`create`; datagrams arriving before
        ``open`` are dropped."""
        self._handler = handler
        return self.local_endpoint

    def close(self) -> None:
        self._handler = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # ------------------------------------------------------------------
    def send(self, dst: Endpoint, msg: Any, size_hint: int = 0) -> None:
        before = codec.opaque_frames
        buf = codec.encode(msg)
        if codec.opaque_frames != before:
            self._m_opaque.inc(codec.opaque_frames - before)
        self.send_frame(dst, buf)

    def send_frame(self, dst: Endpoint, frame: bytes) -> None:
        if self._transport is None or self._transport.is_closing():
            return
        self.sent += 1
        self._m_tx_bytes.inc(len(frame))
        self._transport.sendto(frame, (dst.ip, dst.port))

    def _on_datagram(self, data: bytes, addr) -> None:
        if self._handler is None:
            return
        if len(data) > 1 and data[1] == codec.T_ROUTED:
            msg = data     # the node forwards it as bytes or decodes it
        else:
            try:
                msg = codec.decode_lazy(data)
            except codec.DecodeError:
                self._m_decode_err.inc()
                return
        self.received += 1
        self._m_rx_bytes.inc(len(data))
        self._handler(msg, Endpoint(addr[0], addr[1]),
                      len(data) + codec.UDP_IP_OVERHEAD)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UdpTransport {self.name} {self._endpoint}>"
