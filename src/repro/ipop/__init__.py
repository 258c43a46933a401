"""IPOP: IP-over-P2P virtual networking (paper §III-B, ref [29]).

Gives each WOW node a virtual IP on a private subnet (the paper's
``172.16.1.x``), deterministically mapped onto the Brunet ring, and tunnels
IP traffic over the overlay.  Small packets (ICMP, RPC) are simulated
per-datagram through the real router code; bulk data rides the fluid-flow
model over the *current* overlay route, re-pathed live as shortcuts form or
nodes migrate.
"""

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it (imported on first use)
_ORIGIN = {
    "VirtualIpPacket": "ippacket",
    "IcmpEcho": "ippacket",
    "addr_for_ip": "mapping",
    "IpopRouter": "router",
    "BandwidthBroker": "bandwidth",
    "OverlayTransfer": "transfer",
    "Pinger": "icmp",
    "PingStats": "icmp",
}

__all__ = list(_ORIGIN)
__getattr__ = lazy_exports(__name__, _ORIGIN)
