"""UdpTransport: real datagrams over a non-blocking UDP socket.

Every outbound message is framed by :mod:`repro.wire` (version byte, type
tag, length-prefixed fields) and handed to the OS; every inbound datagram
is counted as received and handed to the node as the received bytes,
unread.  The node classifies it with one :func:`repro.wire.frame_view`
call — a transit hop patches and resends a routed frame through
:meth:`UdpTransport.send_frame` without a decode or an encode, a
destination takes a tunnelled IP packet out of the same pass, a
keep-alive is read and answered as fixed-layout bytes — and decodes the
rest itself, counting a frame that fails on ``wire.decode_error`` and
dropping it, so malformed traffic never raises into the event loop.
Frames the node launches as bytes leave through ``send_frame`` too.

The transport owns its socket and registers it with the asyncio loop's
selector (``add_reader``).  One wake-up drains the receive queue: it
reads a datagram, hands it over, and asks the kernel (``FIONREAD``)
whether another is queued, up to :data:`READ_BATCH` datagrams; whatever
remains is read on the loop's next pass, because the selector is
level-triggered.  A window of back-to-back segments therefore arrives in
one callback instead of one loop pass each, and a flooded socket cannot
starve timers or other sockets.  ``send_frame`` calls ``sendto`` itself:
a datagram the OS refuses (a full send buffer, ``ENOBUFS``, an ICMP error
reported on the socket) is dropped and counted on ``wire.socket_error``,
as is a receive error, which also ends that wake-up.  Socket errors stay
out of the node's ``wire.decode_error``, which reads as codec health.

The reported receive ``size`` is ``len(frame) + UDP_IP_OVERHEAD`` so that
byte accounting (``conn.bytes_sent`` etc.) matches what a codec-mode
:class:`~repro.transport.sim.SimTransport` charges for the same message —
the measurable half of the sim-vs-live equivalence argument.
"""

from __future__ import annotations

import socket
from array import array
from fcntl import ioctl
from termios import FIONREAD
from typing import Any, Optional

from repro.phys.endpoints import Endpoint
from repro.transport.base import ReceiveHandler, Transport
from repro.transport.runtime import RealtimeKernel
from repro.wire import codec

#: datagrams read in one wake-up at most
READ_BATCH = 64
#: receive buffer per ``recvfrom``: the largest UDP payload fits
MAX_DATAGRAM = 1 << 16
#: peer ``Endpoint``s a transport keeps; cleared when full (peers pick them)
ENDPOINT_MEMO_MAX = 1024


class UdpTransport(Transport):
    """One node's live UDP endpoint (localhost or LAN)."""

    carries_frames = True

    def __init__(self, kernel: RealtimeKernel, name: str = ""):
        self.kernel = kernel
        self.name = name
        self._sock: Optional[socket.socket] = None
        #: the descriptor registered with the loop, while it is
        self._reader_fd: Optional[int] = None
        self._handler: Optional[ReceiveHandler] = None
        self._endpoint: Optional[Endpoint] = None
        #: OS source address -> its ``Endpoint``, one per peer
        self._peers: dict[tuple, Endpoint] = {}
        #: ``FIONREAD`` writes the size of the next queued datagram here
        #: (a mutable buffer: ``ioctl`` on ``bytes`` costs twice as much)
        self._next_size = array("i", [0])
        metrics = kernel.obs.metrics
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
        sock = socket.socket(socket.AF_INET6 if ":" in ip else socket.AF_INET,
                             socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind((ip, port))
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._reader_fd = sock.fileno()
        kernel.loop.add_reader(self._reader_fd, self._read_ready)
        sockname = sock.getsockname()
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
        sock, self._sock = self._sock, None
        if self._reader_fd is not None:
            self.kernel.loop.remove_reader(self._reader_fd)
            self._reader_fd = None
        if sock is not None:
            sock.close()

    # ------------------------------------------------------------------
    def send(self, dst: Endpoint, msg: Any, size_hint: int = 0) -> None:
        before = codec.opaque_frames
        buf = codec.encode(msg)
        if codec.opaque_frames != before:
            self._m_opaque.inc(codec.opaque_frames - before)
        self.send_frame(dst, buf)

    def send_frame(self, dst: Endpoint, frame: bytes) -> None:
        sock = self._sock
        if sock is None:
            return
        self.sent += 1
        self._m_tx_bytes.value += len(frame)
        try:
            sock.sendto(frame, dst)     # an Endpoint is an (ip, port) tuple
        except OSError:
            self._m_socket_err.inc()

    def _read_ready(self) -> None:
        """The loop's reader callback: drain the queue, at most
        :data:`READ_BATCH` datagrams."""
        sock = self._sock
        fd = sock.fileno()
        next_size = self._next_size
        for _ in range(READ_BATCH):
            try:
                data, addr = sock.recvfrom(MAX_DATAGRAM)
            except BlockingIOError:
                return
            except OSError:
                self._m_socket_err.inc()
                return
            self._on_datagram(data, addr)
            if self._sock is not sock:
                return      # the handler closed the transport
            ioctl(fd, FIONREAD, next_size)
            if not next_size[0]:
                return

    def _on_datagram(self, data: bytes, addr) -> None:
        if self._handler is None:
            return
        self.received += 1
        self._m_rx_bytes.value += len(data)
        src = self._peers.get(addr)
        if src is None:
            if len(self._peers) >= ENDPOINT_MEMO_MAX:
                self._peers.clear()
            src = self._peers[addr] = Endpoint(addr[0], addr[1])
        self._handler(data, src, len(data) + codec.UDP_IP_OVERHEAD)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UdpTransport {self.name} {self._endpoint}>"
