"""Size-accounting invariants for the codec wire mode.

Reference mode keeps the paper constants (HEADER_BYTES on every
datagram); codec mode charges the encoded length plus real UDP/IP
headers.  These tests pin the encap overhead for a tunnelled IP
packet and the Datagram framing override that makes the split possible.
"""

import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.messages import IpEncap, RoutedPacket
from repro.ipop.ippacket import VirtualIpPacket
from repro.obs.spans import TraceRef
from repro.phys.endpoints import Endpoint
from repro.phys.packet import Datagram, HEADER_BYTES
from repro.wire import UDP_IP_OVERHEAD, encap_overhead, encode

A = Endpoint("10.0.0.1", 14001)
B = Endpoint("10.0.0.2", 14001)


def _tunnelled(trace=None, vip_size=84):
    addr = BrunetAddress(0)
    vip = VirtualIpPacket("10.128.0.2", "10.128.0.3", "icmp", 0, None,
                          vip_size)
    return RoutedPacket(src=addr, dest=addr, payload=IpEncap(vip, vip_size),
                        size=vip_size, exact=True, trace=trace)


def test_encap_overhead_pinned():
    # RoutedPacket + IpEncap + VirtualIpPacket framing (101 B for the
    # minimal packet above) + IPv4/UDP (28 B).  A change here is a wire
    # format change and must bump WIRE_VERSION.
    assert encap_overhead() == 129
    assert encap_overhead() == len(encode(_tunnelled())) + UDP_IP_OVERHEAD


def test_traced_packet_pays_exactly_the_trace_ref():
    untraced = len(encode(_tunnelled()))
    traced = len(encode(_tunnelled(trace=TraceRef(123, 456))))
    # two u64 span ids — ids, not object references (the presence byte
    # is paid either way)
    assert traced - untraced == 8 + 8


def test_payload_bytes_do_not_change_framing_overhead():
    small, big = _tunnelled(vip_size=10), _tunnelled(vip_size=60000)
    assert len(encode(small)) == len(encode(big))


def test_udp_ip_overhead_is_real_headers_not_paper_constant():
    assert UDP_IP_OVERHEAD == 20 + 8  # IPv4 + UDP
    assert UDP_IP_OVERHEAD != HEADER_BYTES


def test_datagram_default_framing_is_reference_constant():
    d = Datagram(A, B, payload="x", size=100)
    assert d.size == HEADER_BYTES + 100


def test_datagram_header_override_for_codec_mode():
    d = Datagram(A, B, payload="x", size=100, header=UDP_IP_OVERHEAD)
    assert d.size == UDP_IP_OVERHEAD + 100
    # encoded frames carry their own overlay framing: header=0 must also
    # be honoured (not confused with "use the default")
    d0 = Datagram(A, B, payload="x", size=100, header=0)
    assert d0.size == 100


def test_encap_overhead_is_cached_and_stable():
    assert encap_overhead() is not None
    assert encap_overhead() == encap_overhead()

