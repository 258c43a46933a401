"""IpopRouter: the user-level tap + encapsulation engine on one WOW node.

Picks virtual-IP packets from the guest, feeds the shortcut overlord's
traffic inspection, wraps them in :class:`IpEncap` and routes them over the
overlay; inbound packets are dispatched to bound protocol/port handlers.
ICMP echo is answered in the router itself (the "kernel" of the guest).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.brunet.messages import IpEncap
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.ipop.mapping import addr_for_ip
from repro.obs.spans import TraceRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.address import BrunetAddress
    from repro.brunet.node import BrunetNode

Handler = Callable[[VirtualIpPacket], None]

IP_HEADER = 28  # IP + UDP header bytes on the virtual wire

#: destination IPs whose ring address a router remembers; the memo is
#: cleared wholesale when full, like the codec's value caches
ADDR_MEMO_MAX = 1024


class IpopRouter:
    """Virtual NIC + IP-over-P2P encapsulation for one node."""

    def __init__(self, node: "BrunetNode", virtual_ip: str):
        self.virtual_ip = virtual_ip
        self.addr = addr_for_ip(virtual_ip)
        if node.addr != self.addr:
            raise ValueError(
                f"node address {node.addr!r} does not own {virtual_ip}")
        self._handlers: dict[tuple[str, int], Handler] = {}
        #: destination IP -> ring address (a SHA-1 per miss, not per packet)
        self._dest_addrs: dict[str, "BrunetAddress"] = {}
        self.packets_out = 0
        self.packets_in = 0
        metrics = node.sim.obs.metrics
        self._m_encap_pkts = metrics.counter("ipop.encap_packets",
                                             node=node.name)
        self._m_encap_bytes = metrics.counter("ipop.encap_bytes",
                                              node=node.name)
        self._m_decap_pkts = metrics.counter("ipop.decap_packets",
                                             node=node.name)
        self._m_decap_bytes = metrics.counter("ipop.decap_bytes",
                                              node=node.name)
        self._attach(node)

    def _attach(self, node: "BrunetNode") -> None:
        self.node = node
        # Header bytes charged on the virtual wire: IP+UDP (28 B) per
        # packet, except that codec mode charges none on VTCP segments,
        # whose ``Segment.size`` already holds their TCP/IP header (40 B).
        # Reference mode keeps the double count for golden determinism.
        self._tcp_header = (IP_HEADER if node.config.wire_mode == "reference"
                            else 0)
        node.ip_handler = self._on_encap

    # -- guest-facing API -------------------------------------------------
    def bind(self, proto: str, port: int, handler: Handler) -> None:
        """Register a guest handler for inbound (proto, port) packets."""
        key = (proto, port)
        if key in self._handlers:
            raise ValueError(f"{self.virtual_ip}: {proto}/{port} already bound")
        self._handlers[key] = handler

    def unbind(self, proto: str, port: int) -> None:
        """Remove a guest handler (idempotent)."""
        self._handlers.pop((proto, port), None)

    def send_ip(self, dst_ip: str, proto: str, port: int, payload: Any,
                size: int) -> None:
        """Send one virtual-IP packet (fire and forget, like real IP)."""
        node = self.node
        size += self._tcp_header if proto == "tcp" else IP_HEADER
        pkt = VirtualIpPacket(self.virtual_ip, dst_ip, proto, port, payload,
                              size)
        memo = self._dest_addrs
        dest_addr = memo.get(dst_ip)
        if dest_addr is None:
            if len(memo) >= ADDR_MEMO_MAX:
                memo.clear()
            dest_addr = memo[dst_ip] = addr_for_ip(dst_ip)
        self.packets_out += 1
        self._m_encap_pkts.value += 1
        self._m_encap_bytes.value += size
        ref = None
        spans = node.sim.obs.spans
        if spans.enabled:
            tid = spans.maybe_trace("ip")
            if tid is not None:
                now = node.sim.now
                root = spans.start(
                    "ip.packet", node=node.name, t=now, trace_id=tid,
                    src=self.virtual_ip, dst=dst_ip, proto=proto,
                    port=port, size=size)
                ref = TraceRef(tid, root)
                spans.hop(ref, "ipop.encap", node.name, now,
                          dest=str(dest_addr))
        if node.active:
            node.shortcut_overlord.observe(dest_addr)
        node.send_routed(dest_addr, IpEncap(pkt, size),
                         size=size, exact=True, trace=ref)

    # -- overlay-facing ----------------------------------------------------
    def _on_encap(self, encap: IpEncap) -> None:
        pkt = encap.payload
        if not isinstance(pkt, VirtualIpPacket) or pkt.dst_ip != self.virtual_ip:
            self.node.stats["ip_misdelivered"] += 1
            return
        self.packets_in += 1
        self._m_decap_pkts.value += 1
        self._m_decap_bytes.value += pkt.size
        if pkt.proto != "icmp":
            handler = self._handlers.get((pkt.proto, pkt.port))
            if handler is not None:
                handler(pkt)
            else:
                self.node.stats["ip_port_unreachable"] += 1
            return
        echo = pkt.payload      # the guest's kernel answers an echo itself
        if isinstance(echo, IcmpEcho) and not echo.is_reply:
            reply = IcmpEcho(echo.seq, True, echo.sent_at, echo.data_size)
            self.send_ip(pkt.src_ip, "icmp", 0, reply, echo.data_size + 8)
            return
        handler = self._handlers.get(("icmp", 0))
        if handler is not None:
            handler(pkt)

    def detach(self) -> None:
        """Disconnect from the node (used on IPOP restart/migration)."""
        if self.node.ip_handler is self._on_encap:
            self.node.ip_handler = None

    def attach(self, node: "BrunetNode") -> None:
        """Re-attach the tap to a fresh node instance (same address)."""
        if node.addr != self.addr:
            raise ValueError("re-attach requires the same ring address")
        self._attach(node)
