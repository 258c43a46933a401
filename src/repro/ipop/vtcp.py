"""Virtual TCP: a reliable, connection-oriented byte stream over IPOP.

The paper's middleware (NFS, SSH, PBS) rides TCP over the virtual network;
the RPC substrate models that reliability directly, but some behaviours —
connection state surviving a migration, in-order delivery, FIN teardown —
deserve a real protocol.  This is a compact TCP: three-way handshake,
cumulative ACKs, a fixed window, retransmission timers with exponential
back-off, and graceful close.  Segments travel as individual virtual-IP
packets, so every NAT/overlay behaviour applies to them.

The receiver acks once per receive batch: an in-order DATA segment arms
one zero-delay ACK timer, and every in-order segment that arrives before
it fires rides on the same cumulative ACK.  In the simulator the timer
fires after the current instant's events; live, after the next I/O
poll, which is when a drained socket has handed over a whole window
(:mod:`repro.transport.udp`).  No ACK waits on a clock, so no round trip
grows.  An out-of-order, duplicate or gap-filling segment is acked at
once (RFC 5681 §4.2), and that ACK covers a pending one.  A segment past
the receive window (``rcv_next + DEFAULT_WINDOW`` or later, which no
honest sender reaches) is acked the same way but dropped and counted on
``ipop.vtcp_window_drops``, so a peer cannot grow the reorder buffer.
The FIN takes sequence number ``snd_next``, so its ACK (``seq + 1``)
cannot be mistaken for a late data ACK.

Bulk data still uses :class:`~repro.ipop.transfer.OverlayTransfer` (a fluid
flow); VTCP is for *control* streams, where per-segment semantics matter.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.ipop.ippacket import VirtualIpPacket
from repro.sim.process import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipop.router import IpopRouter

_isn_counter = itertools.count(1000)

MSS = 1400
DEFAULT_WINDOW = 8  # segments in flight
RTO_INITIAL = 1.0
RTO_MAX = 60.0
MAX_SYN_RETRIES = 30  # keep trying across migration outages


@dataclass
class Segment:
    """One VTCP segment (sequence numbers count segments, not bytes)."""

    seq: int
    ack: int
    flags: str  # "SYN", "SYN+ACK", "ACK", "DATA", "FIN"
    payload: Any = None
    size: int = 40


class VtcpSocket:
    """One endpoint of a virtual TCP connection."""

    def __init__(self, router: "IpopRouter", local_port: int,
                 on_message: Optional[Callable[[Any], None]] = None):
        self.router = router
        self.sim = router.node.sim
        self.local_port = local_port
        self.on_message = on_message
        self.state = "CLOSED"
        self.peer_ip: Optional[str] = None
        self.peer_port: Optional[int] = None
        # send side
        self.snd_next = 0
        self.snd_una = 0
        self._send_buffer: deque[tuple[Any, int]] = deque()
        self._in_flight: dict[int, Segment] = {}
        self._rto = RTO_INITIAL
        self._retx_timer = None
        self._syn_tries = 0
        self._close_requested = False
        # receive side
        self.rcv_next = 0
        self._reorder: dict[int, Segment] = {}
        self._m_window_drops = self.sim.obs.metrics.counter(
            "ipop.vtcp_window_drops", node=router.node.name)
        self._ack_timer = None
        # signals
        self.established = Signal(self.sim, "vtcp.established", latch=True)
        self.closed = Signal(self.sim, "vtcp.closed", latch=True)
        self.messages_delivered = 0
        self.retransmissions = 0

    # ------------------------------------------------------------------
    # state machine entry points
    # ------------------------------------------------------------------
    def connect(self, peer_ip: str, peer_port: int) -> Signal:
        """Active open; returns the latched ``established`` signal."""
        if self.state != "CLOSED":
            raise RuntimeError(f"connect() in state {self.state}")
        self.peer_ip, self.peer_port = peer_ip, peer_port
        self.state = "SYN_SENT"
        self.snd_next = next(_isn_counter)
        self.snd_una = self.snd_next
        self._transmit(Segment(self.snd_next, 0, "SYN"))
        self._arm_retx()
        return self.established

    def listen(self) -> None:
        """Passive open: accept the first SYN that arrives."""
        if self.state != "CLOSED":
            raise RuntimeError(f"listen() in state {self.state}")
        self.state = "LISTEN"

    def send(self, message: Any, size: int = 200) -> None:
        """Queue one message; it is delivered exactly once, in order."""
        if self.state not in ("ESTABLISHED", "SYN_SENT", "LISTEN",
                              "SYN_RCVD") or self._close_requested:
            raise RuntimeError(f"send() in state {self.state}")
        self._send_buffer.append((message, size))
        self._pump()

    def close(self) -> Signal:
        """Flush pending data, then FIN."""
        self._close_requested = True
        if self.state == "CLOSED":
            self.closed.fire(self)
        elif self.state == "LISTEN":
            self._teardown()
        else:
            self._maybe_fin()
        return self.closed

    def _maybe_fin(self) -> None:
        if self._close_requested and self.state == "ESTABLISHED" \
                and not self._send_buffer and not self._in_flight:
            self._send_fin()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _transmit(self, seg: Segment) -> None:
        if self.peer_ip is None:
            return
        self.router.send_ip(self.peer_ip, "vtcp", self.peer_port,
                            (self.local_port, seg), seg.size)

    def _arm_retx(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
        self._retx_timer = self.sim.schedule(self._rto, self._on_retx)

    def _on_retx(self) -> None:
        self._retx_timer = None
        if self.state == "SYN_SENT":
            self._syn_tries += 1
            if self._syn_tries > MAX_SYN_RETRIES:
                self._teardown()
                return
            self.retransmissions += 1
            self._transmit(Segment(self.snd_una, 0, "SYN"))
        elif self._in_flight:
            # go-back: retransmit the oldest unacked segment
            oldest = min(self._in_flight)
            self.retransmissions += 1
            self._transmit(self._in_flight[oldest])
        elif self.state == "FIN_SENT":
            self.retransmissions += 1
            self._transmit(Segment(self.snd_next, self.rcv_next, "FIN"))
        else:
            return
        self._rto = min(self._rto * 2.0, RTO_MAX)
        self._arm_retx()

    def _pump(self) -> None:
        """Move queued messages into the window."""
        if self.state != "ESTABLISHED":
            return
        while self._send_buffer and len(self._in_flight) < DEFAULT_WINDOW:
            message, size = self._send_buffer.popleft()
            seg = Segment(self.snd_next, self.rcv_next, "DATA", message,
                          size + 40)
            self.snd_next += 1
            self._in_flight[seg.seq] = seg
            self._transmit(seg)
        if self._in_flight and self._retx_timer is None:
            self._arm_retx()

    def _send_fin(self) -> None:
        self.state = "FIN_SENT"
        self._transmit(Segment(self.snd_next, self.rcv_next, "FIN"))
        self._arm_retx()

    def _teardown(self) -> None:
        for timer in (self._retx_timer, self._ack_timer):
            if timer is not None:
                timer.cancel()
        self._retx_timer = self._ack_timer = None
        self.state = "CLOSED"
        self.closed.fire(self)

    # ------------------------------------------------------------------
    # segment arrival
    # ------------------------------------------------------------------
    def handle_segment(self, src_ip: str, src_port: int,
                       seg: Segment) -> None:
        """State-machine entry point for one arriving segment."""
        if self.state == "LISTEN" and seg.flags == "SYN":
            self.peer_ip, self.peer_port = src_ip, src_port
            self.rcv_next = seg.seq + 1
            self.snd_next = next(_isn_counter)
            self.snd_una = self.snd_next
            self.state = "SYN_RCVD"
            self._transmit(Segment(self.snd_next, self.rcv_next, "SYN+ACK"))
            self._arm_retx()
            return
        if (src_ip, src_port) != (self.peer_ip, self.peer_port):
            return  # stray
        if seg.flags == "SYN" and self.state in ("SYN_RCVD", "ESTABLISHED"):
            # duplicate SYN: re-ack
            self._transmit(Segment(self.snd_una, self.rcv_next, "SYN+ACK"))
            return
        if seg.flags == "SYN+ACK" and self.state == "SYN_SENT":
            self.rcv_next = seg.seq + 1
            self.snd_next += 1
            self.snd_una = self.snd_next
            self.state = "ESTABLISHED"
            self._rto = RTO_INITIAL
            if self._retx_timer is not None:
                self._retx_timer.cancel()
                self._retx_timer = None
            self._transmit(Segment(self.snd_next, self.rcv_next, "ACK"))
            self.established.fire(self)
            self._pump()
            return
        if seg.flags == "ACK" and self.state == "SYN_RCVD":
            self.state = "ESTABLISHED"
            self._rto = RTO_INITIAL
            if self._retx_timer is not None:
                self._retx_timer.cancel()
                self._retx_timer = None
            self.established.fire(self)
            self._pump()
            return
        if seg.flags == "DATA":
            self._on_data(seg)
            return
        if seg.flags == "ACK":
            if self.state == "FIN_SENT":
                # the FIN holds sequence number snd_next: only an ACK past
                # it acks the FIN; a late data ACK leaves it retransmitting
                if seg.ack > self.snd_next:
                    self._teardown()
                return
            self._on_ack(seg.ack)
            return
        if seg.flags == "FIN":
            self.rcv_next = max(self.rcv_next, seg.seq + 1)
            self._send_ack()
            self._teardown()
            return

    def _on_data(self, seg: Segment) -> None:
        if self.state not in ("ESTABLISHED", "SYN_RCVD", "FIN_SENT"):
            return
        # in order: acked with the rest of its receive batch; out of
        # order, duplicate or gap-filling: acked at once
        batched = seg.seq == self.rcv_next and not self._reorder
        if seg.seq >= self.rcv_next + DEFAULT_WINDOW:
            # past the receive window: an honest sender's unacked seqs are
            # [snd_una, snd_next), at most DEFAULT_WINDOW long, and
            # rcv_next >= snd_una, so only a hostile peer sends this
            self._m_window_drops.value += 1
        elif seg.seq >= self.rcv_next:
            self._reorder[seg.seq] = seg
            while self.rcv_next in self._reorder:
                ready = self._reorder.pop(self.rcv_next)
                self.rcv_next += 1
                self.messages_delivered += 1
                if self.on_message is not None:
                    self.on_message(ready.payload)
        if not batched:
            self._send_ack()
        elif self._ack_timer is None:
            self._ack_timer = self.sim.schedule(0.0, self._send_ack)

    def _send_ack(self) -> None:
        """One cumulative ACK; it stands in for a pending batched one."""
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._transmit(Segment(self.snd_next, self.rcv_next, "ACK"))

    def _on_ack(self, ack: int) -> None:
        progressed = ack > self.snd_una
        for seq in [s for s in self._in_flight if s < ack]:
            self._in_flight.pop(seq)
        self.snd_una = max(self.snd_una, ack)
        if progressed:
            # forward progress: reset the back-off and restart the timer
            self._rto = RTO_INITIAL
            if self._retx_timer is not None:
                self._retx_timer.cancel()
                self._retx_timer = None
            if self._in_flight:
                self._arm_retx()
        if not self._in_flight and self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None
        self._pump()
        self._maybe_fin()


class VtcpStack:
    """Creates VTCP sockets on one IPOP router.

    Each socket binds its local port on the router; segments carry the
    sender's source port in the payload so replies can be addressed."""

    def __init__(self, router: "IpopRouter"):
        self.router = router
        self._sockets: dict[int, VtcpSocket] = {}

    def socket(self, port: int,
               on_message: Optional[Callable[[Any], None]] = None
               ) -> VtcpSocket:
        if port in self._sockets:
            raise ValueError(f"vtcp port {port} in use")
        sock = VtcpSocket(self.router, port, on_message)
        self._sockets[port] = sock

        def dispatch(pkt: VirtualIpPacket, sock=sock) -> None:
            src_port, seg = pkt.payload
            sock.handle_segment(pkt.src_ip, src_port, seg)

        self.router.bind("vtcp", port, dispatch)
        return sock

    def release(self, port: int) -> None:
        if port in self._sockets:
            self._sockets.pop(port)
            self.router.unbind("vtcp", port)
