"""NAT and firewall middlebox models.

The WOW experiments hinge on NAT semantics: the UFL campus NAT drops
"hairpin" packets (sourced inside, addressed to the NAT's own public
mapping), which forces the linking protocol through its full retry/back-off
schedule before falling back to private URIs; the VMware NAT does support
hairpin, so NWU-NWU shortcuts form quickly (paper §V-B).

Behaviour taxonomy follows RFC 4787 / the hole-punching literature the paper
cites ([25] Ford et al.):

* **Mapping**: ``ENDPOINT_INDEPENDENT`` (one public port per inner socket —
  "cone") or ``ADDRESS_PORT_DEPENDENT`` (a fresh public port per remote
  endpoint — "symmetric").
* **Filtering**: which inbound packets a mapping accepts —
  ``ENDPOINT_INDEPENDENT`` (full cone), ``ADDRESS_DEPENDENT`` (restricted
  cone) or ``ADDRESS_PORT_DEPENDENT`` (port-restricted cone).
* **hairpin**: whether packets from the inside addressed to the NAT's own
  public endpoint are looped back inside.

Mappings expire after ``mapping_timeout`` seconds of disuse; expiry may
change a node's NAT-assigned URI — §V-E notes IPOP survives exactly this on
the home-network node, which we reproduce in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.phys.endpoints import Endpoint, ip_in_subnet


class MappingBehavior(enum.Enum):
    """How public ports are allocated: one per inner socket (cone) or one
    per (inner socket, remote endpoint) pair (symmetric)."""

    ENDPOINT_INDEPENDENT = "eim"
    ADDRESS_PORT_DEPENDENT = "apdm"  # "symmetric"


class FilteringBehavior(enum.Enum):
    """Which inbound packets an existing mapping accepts (RFC 4787)."""

    ENDPOINT_INDEPENDENT = "eif"  # full cone
    ADDRESS_DEPENDENT = "adf"  # restricted cone
    ADDRESS_PORT_DEPENDENT = "apdf"  # port-restricted cone


@dataclass(frozen=True)
class NatSpec:
    """Static description of a NAT's behaviour (used by topology builders)."""

    mapping: MappingBehavior = MappingBehavior.ENDPOINT_INDEPENDENT
    filtering: FilteringBehavior = FilteringBehavior.ADDRESS_PORT_DEPENDENT
    hairpin: bool = True
    mapping_timeout: float = 120.0

    @staticmethod
    def cone(hairpin: bool = True, timeout: float = 120.0) -> "NatSpec":
        """Typical consumer/campus cone NAT (port-restricted filtering)."""
        return NatSpec(MappingBehavior.ENDPOINT_INDEPENDENT,
                       FilteringBehavior.ADDRESS_PORT_DEPENDENT,
                       hairpin, timeout)

    @staticmethod
    def symmetric(hairpin: bool = False, timeout: float = 120.0) -> "NatSpec":
        """Symmetric NAT: hole punching with another NATed peer fails."""
        return NatSpec(MappingBehavior.ADDRESS_PORT_DEPENDENT,
                       FilteringBehavior.ADDRESS_PORT_DEPENDENT,
                       hairpin, timeout)


@dataclass
class FirewallPolicy:
    """Stateless inbound firewall in front of *public* hosts.

    ``open_udp_ports`` — inbound UDP allowed only to these ports (None means
    allow everything).  Outbound traffic always passes; the stateful part of
    campus firewalls is subsumed by the NAT filtering model.
    """

    open_udp_ports: Optional[frozenset[int]] = None

    def allows_inbound(self, dst_port: int) -> bool:
        """True when the firewall admits inbound UDP to ``dst_port``."""
        return self.open_udp_ports is None or dst_port in self.open_udp_ports


@dataclass
class _Mapping:
    inner: Endpoint
    public_port: int
    key: tuple = ()
    # remote endpoints the inner socket has sent to through this mapping
    contacted: set[Endpoint] = field(default_factory=set)
    last_used: float = 0.0


class Nat:
    """A NAT device translating between an inner subnet and a public IP.

    The device owns ``public_ip`` and translates UDP traffic for inner hosts
    whose IPs fall inside ``subnet``.  NATs nest: a VMware NAT's "public" IP
    may itself be a private address inside a campus NAT.
    """

    #: public ports are drawn from [PORT_MIN, PORT_MAX] and reused after
    #: their holder expires — real NATs never mint ports past 65535
    PORT_MIN = 20000
    PORT_MAX = 65535

    def __init__(self, name: str, public_ip: str, subnet: str, spec: NatSpec,
                 clock=None):
        self.name = name
        self.public_ip = public_ip
        self.subnet = subnet if subnet.endswith(".") else subnet + "."
        self.spec = spec
        self._clock = clock or (lambda: 0.0)
        self._next_port = self.PORT_MIN
        # EIM: key (proto, inner_ep); APDM: key (proto, inner_ep, remote_ep)
        self._by_key: dict[tuple, _Mapping] = {}
        self._by_port: dict[int, _Mapping] = {}
        self.drops: dict[str, int] = {"filtering": 0, "hairpin": 0,
                                      "no_mapping": 0}

    # ------------------------------------------------------------------
    def live_mappings(self) -> int:
        """Number of currently live (non-expired) mappings — exported as
        the ``nat.mappings_live`` gauge."""
        return sum(1 for m in self._by_port.values()
                   if not self._expired(m))

    # ------------------------------------------------------------------
    def is_inside(self, ip: str) -> bool:
        """True when ``ip`` belongs to this NAT's private subnet."""
        return ip_in_subnet(ip, self.subnet)

    def _now(self) -> float:
        return self._clock()

    def _expired(self, m: _Mapping) -> bool:
        return self._now() - m.last_used > self.spec.mapping_timeout

    def _gc(self, m: _Mapping) -> None:
        self._by_key.pop(m.key, None)
        self._by_port.pop(m.public_port, None)

    def _alloc_port(self) -> int:
        """Next free public port, wrapping within [PORT_MIN, PORT_MAX].

        Ports whose holder has expired are reclaimed in passing; a port
        still held by a live mapping is skipped."""
        span = self.PORT_MAX - self.PORT_MIN + 1
        for _ in range(span):
            port = self._next_port
            self._next_port = (port + 1 if port < self.PORT_MAX
                               else self.PORT_MIN)
            holder = self._by_port.get(port)
            if holder is None:
                return port
            if self._expired(holder):
                self._gc(holder)
                return port
        raise RuntimeError(f"{self.name}: public port space exhausted")

    def _key(self, proto: str, inner: Endpoint, remote: Endpoint) -> tuple:
        if self.spec.mapping == MappingBehavior.ENDPOINT_INDEPENDENT:
            return (proto, inner)
        return (proto, inner, remote)

    # ------------------------------------------------------------------
    def translate_outbound(self, proto: str, inner: Endpoint,
                           remote: Endpoint) -> Endpoint:
        """Rewrite an outbound packet's source; creates/refreshes a mapping.

        Returns the public source endpoint.
        """
        key = self._key(proto, inner, remote)
        m = self._by_key.get(key)
        if m is not None and self._expired(m):
            self._gc(m)
            m = None
        if m is None:
            port = self._alloc_port()
            m = _Mapping(inner=inner, public_port=port, key=key)
            self._by_key[key] = m
            self._by_port[port] = m
        m.contacted.add(remote)
        m.last_used = self._now()
        return Endpoint(self.public_ip, m.public_port)

    def translate_inbound(self, proto: str, public_port: int,
                          remote: Endpoint) -> Optional[Endpoint]:
        """Rewrite an inbound packet's destination.

        Returns the inner endpoint, or None when the packet must be dropped
        (no mapping / filtering violation / expiry).
        """
        m = self._by_port.get(public_port)
        if m is None:
            self.drops["no_mapping"] += 1
            return None
        if self._expired(m):
            self._gc(m)
            self.drops["no_mapping"] += 1
            return None
        filt = self.spec.filtering
        if filt == FilteringBehavior.ENDPOINT_INDEPENDENT:
            allowed = True
        elif filt == FilteringBehavior.ADDRESS_DEPENDENT:
            allowed = any(r.ip == remote.ip for r in m.contacted)
        else:  # ADDRESS_PORT_DEPENDENT
            allowed = remote in m.contacted
        if not allowed:
            self.drops["filtering"] += 1
            return None
        m.last_used = self._now()
        return m.inner

    # ------------------------------------------------------------------
    def expire_all(self) -> None:
        """Drop every mapping (models NAT reboot / ISP re-translation)."""
        self._by_key.clear()
        self._by_port.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Nat {self.name} {self.subnet}* -> {self.public_ip} "
                f"{self.spec.mapping.value}/{self.spec.filtering.value} "
                f"hairpin={self.spec.hairpin}>")
