"""Physical substrate: hosts, sites, NAT/firewall middleboxes, the WAN.

This package replaces the paper's testbed hardware (campus networks, NAT
routers, PlanetLab hosts) with an event-driven model.  Control traffic is
simulated per-datagram (:mod:`repro.phys.network`); bulk data uses a
max-min-fair fluid-flow model (:mod:`repro.phys.flows`).
"""

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it (imported on first use)
_ORIGIN = {
    "Endpoint": "endpoints",
    "ip_in_subnet": "endpoints",
    "Datagram": "packet",
    "Nat": "nat",
    "NatSpec": "nat",
    "MappingBehavior": "nat",
    "FilteringBehavior": "nat",
    "FirewallPolicy": "nat",
    "Host": "host",
    "UdpSocket": "host",
    "LatencyModel": "latency",
    "Site": "topology",
    "Internet": "network",
    "Flow": "flows",
    "FlowManager": "flows",
    "Resource": "flows",
}

__all__ = list(_ORIGIN)
__getattr__ = lazy_exports(__name__, _ORIGIN)
