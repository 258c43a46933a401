"""What codec mode charges for tunnelling one virtual-IP packet.

``BrunetConfig.wire_mode == "reference"`` reproduces the paper-constant
byte accounting (``size_ctm``/``size_link``/``size_ping`` plus the fixed
:data:`~repro.phys.packet.HEADER_BYTES`), keeping existing experiments
byte-identical.  ``"codec"`` mode charges ``len(encode(msg))`` plus
:data:`~repro.wire.codec.UDP_IP_OVERHEAD`; :func:`encap_overhead` is the
fixed part of that charge, encoded once, so higher layers (bulk-flow
accounting, tests) can reason about it without encoding a packet per
call.
"""

from __future__ import annotations

from functools import lru_cache

from repro.brunet.address import BrunetAddress
from repro.brunet.messages import IpEncap, RoutedPacket
from repro.ipop.ippacket import VirtualIpPacket
from repro.wire.codec import UDP_IP_OVERHEAD, encode


@lru_cache(maxsize=1)
def encap_overhead() -> int:
    """Fixed per-packet overhead (bytes) of tunnelling one virtual-IP
    packet over the overlay: the encoded RoutedPacket + IpEncap +
    VirtualIpPacket framing around the virtual payload, plus the physical
    UDP/IP headers.  Excludes the via-list growth (one address per
    overlay hop), which is path-dependent.
    """
    addr = BrunetAddress(0)
    vip = VirtualIpPacket("10.128.0.2", "10.128.0.3", "icmp", 0, None, 0)
    pkt = RoutedPacket(src=addr, dest=addr, payload=IpEncap(vip, 0),
                       size=0, exact=True)
    return len(encode(pkt)) + UDP_IP_OVERHEAD
