"""Sites: named network domains with a LAN, optional NAT and firewall.

A site groups hosts that share a campus/home network.  Private sites get a
NAT device translating a site subnet to a public IP; guests at a site may
additionally sit behind nested (e.g. VMware) NATs — those are created by the
VM layer and simply prepended to a host's ``nat_chain``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.phys.endpoints import IpAllocator
from repro.phys.nat import FirewallPolicy, Nat, NatSpec
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host
    from repro.phys.network import Internet


class Site:
    """One administrative domain (campus, PlanetLab slice, home network)."""

    def __init__(self, internet: "Internet", name: str,
                 subnet: Optional[str] = None,
                 public_prefix: Optional[str] = None,
                 nat_spec: Optional[NatSpec] = None,
                 firewall: Optional[FirewallPolicy] = None,
                 lan_latency: float = ms(0.3)):
        self.internet = internet
        self.name = name
        self.lan_latency = lan_latency
        self.firewall = firewall
        self.hosts: list["Host"] = []
        self.nat: Optional[Nat] = None
        self._private_alloc: Optional[IpAllocator] = None
        self._public_alloc: Optional[IpAllocator] = None

        if nat_spec is not None:
            if subnet is None:
                raise ValueError(f"site {name}: NATed site needs a subnet")
            public_ip = internet.allocate_public_ip()
            self.nat = Nat(f"nat.{name}", public_ip, subnet, nat_spec,
                           clock=internet.sim)
            internet.register_nat(self.nat)
            self._private_alloc = IpAllocator(subnet)
        else:
            # public site: hosts get globally routable addresses
            self._public_alloc = IpAllocator(
                public_prefix or internet.allocate_public_prefix())

    @property
    def is_private(self) -> bool:
        """True when the site sits behind a NAT."""
        return self.nat is not None

    def allocate_ip(self) -> str:
        """Next host address (private subnet or public prefix)."""
        if self._private_alloc is not None:
            return self._private_alloc.allocate()
        assert self._public_alloc is not None
        return self._public_alloc.allocate()

    def add_host(self, name: str, *, ip: Optional[str] = None,
                 cpu_speed: float = 1.0, proc_delay_mean: float = 0.0,
                 extra_loss: float = 0.0,
                 extra_nats: Optional[list[Nat]] = None) -> "Host":
        """Create a host at this site.

        ``extra_nats`` are inner NATs (innermost first) placed *before* the
        site NAT in the host's chain — the VM layer uses this for VMware
        NAT interfaces.
        """
        from repro.phys.host import Host  # local import to avoid cycle
        chain: list[Nat] = list(extra_nats or [])
        if self.nat is not None:
            chain.append(self.nat)
        host = Host(name, ip or self.allocate_ip(), self, self.internet,
                    nat_chain=chain, cpu_speed=cpu_speed,
                    proc_delay_mean=proc_delay_mean, extra_loss=extra_loss)
        self.hosts.append(host)
        return host

    def __repr__(self) -> str:  # pragma: no cover
        kind = "private" if self.is_private else "public"
        return f"<Site {self.name} {kind} hosts={len(self.hosts)}>"
