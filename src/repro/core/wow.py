"""Deployment: one WOW system instance.

Wires together the physical internet, the bandwidth broker, the overlay
node registry and the VM factory.  Experiments build either ad-hoc
deployments or the paper testbed (:mod:`repro.core.testbed`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.brunet.address import BrunetAddress, random_address
from repro.brunet.config import BrunetConfig
from repro.brunet.node import DEFAULT_PORT, BrunetNode
from repro.brunet.ring import RingIndex
from repro.brunet.uri import Uri
from repro.check.invariants import ring_verdict
from repro.core.config import CalibrationConfig, SiteSpec
from repro.ipop.bandwidth import BandwidthBroker
from repro.phys.latency import LatencyModel
from repro.phys.nat import FirewallPolicy, NatSpec
from repro.phys.network import Internet
from repro.phys.topology import Site

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host
    from repro.sim.engine import Simulator
    from repro.vm.machine import WowVm


class Deployment:
    """Container and factory for one simulated WOW."""

    def __init__(self, sim: "Simulator",
                 calib: Optional[CalibrationConfig] = None,
                 brunet_config: Optional[BrunetConfig] = None):
        self.sim = sim
        self.calib = calib or CalibrationConfig()
        self.brunet_config = brunet_config or BrunetConfig()
        latency = LatencyModel(sim.rng.stream("phys.latency"),
                               default_wan_latency=self.calib.default_wan_latency,
                               default_loss=self.calib.wan_loss)
        for pair, one_way in self.calib.wan_latency.items():
            a, b = sorted(pair)
            latency.set_pair(a, b, one_way)
        self.internet = Internet(sim, latency)
        self.broker = BandwidthBroker(
            sim, self.resolve, default_wan=self.calib.default_wan_capacity)
        self.broker.set_wan_capacity("ufl", "nwu",
                                     self.calib.ufl_nwu_wan_capacity)
        self.sites: dict[str, Site] = {}
        self.nodes_by_addr: dict[BrunetAddress, BrunetNode] = {}
        #: global sorted ring index mirroring ``nodes_by_addr`` — census
        #: and invariant sweeps bisect it instead of re-sorting the dict
        self.ring_index = RingIndex()
        self.bootstrap_uris: list[Uri] = []
        self.router_nodes: list[BrunetNode] = []
        self.vms: dict[str, "WowVm"] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_site(self, spec: SiteSpec) -> Site:
        if spec.name in self.sites:
            return self.sites[spec.name]
        nat_spec = None
        firewall = None
        if spec.subnet is not None:
            nat_spec = NatSpec.cone(hairpin=spec.nat_hairpin)
        if spec.nat_open_port_only:
            firewall = FirewallPolicy(open_udp_ports=frozenset({DEFAULT_PORT}))
        site = Site(self.internet, spec.name, subnet=spec.subnet,
                    nat_spec=nat_spec, firewall=firewall,
                    lan_latency=spec.lan_latency)
        lan_capacity = spec.lan_capacity
        if spec.name == "ufl":
            lan_capacity = self.calib.ufl_lan_capacity
        elif spec.name == "nwu":
            lan_capacity = self.calib.nwu_lan_capacity
        self.broker.set_lan_capacity(spec.name, lan_capacity)
        self.sites[spec.name] = site
        return site

    def add_public_site(self, name: str) -> Site:
        return self.add_site(SiteSpec(name, None))

    # ------------------------------------------------------------------
    # overlay nodes
    # ------------------------------------------------------------------
    def register_node(self, node: BrunetNode) -> None:
        self.nodes_by_addr[node.addr] = node
        self.ring_index.add(node.addr, node)

    def unregister_node(self, node: BrunetNode) -> None:
        if self.nodes_by_addr.get(node.addr) is node:
            self.nodes_by_addr.pop(node.addr)
            self.ring_index.discard(node.addr, node)

    def resolve(self, addr: BrunetAddress) -> Optional[BrunetNode]:
        """Registry lookup used by routing previews and the flow broker."""
        return self.nodes_by_addr.get(addr)

    def add_router_node(self, host: "Host", addr: Optional[BrunetAddress] = None,
                        seed: bool = False, start: bool = True,
                        name: str = "") -> BrunetNode:
        """One overlay-router (no tap) node, e.g. a PlanetLab router."""
        if addr is None:
            addr = random_address(self.sim.rng.stream("deploy.addresses"))
        node = BrunetNode(self.sim, host, addr, self.brunet_config,
                          name=name or f"router.{host.name}.{len(self.router_nodes)}")
        if start:
            node.start(self.bootstrap_uris)
            self.register_node(node)
        if seed:
            self.bootstrap_uris.append(Uri.udp(host.ip, node.port))
        self.router_nodes.append(node)
        return node

    def add_planetlab(self, n_hosts: int = 20, n_routers: int = 118,
                      n_seeds: int = 3, stagger: float = 0.6) -> Site:
        """The public bootstrap overlay: ``n_routers`` IPOP router nodes
        spread over ``n_hosts`` PlanetLab machines (§V-A)."""
        site = self.add_public_site("planetlab")
        cap_rng = self.sim.rng.stream("planetlab.capacity")
        calib = self.calib
        hosts = []
        for i in range(n_hosts):
            host = site.add_host(f"pl{i}",
                                 proc_delay_mean=calib.planetlab_proc_delay,
                                 extra_loss=calib.planetlab_extra_loss)
            host.ipop_forward_capacity = float(
                calib.planetlab_capacity_median
                * cap_rng.lognormal(0.0, calib.planetlab_capacity_sigma))
            hosts.append(host)
        for j in range(n_routers):
            host = hosts[j % n_hosts]
            node = self.add_router_node(host, seed=(j < n_seeds), start=False,
                                        name=f"plnode{j}")
            # stagger joins so the bootstrap ring assembles cleanly
            self.sim.schedule(j * stagger, self._start_router, node)
        return site

    def _start_router(self, node: BrunetNode) -> None:
        node.start(self.bootstrap_uris)
        self.register_node(node)

    # ------------------------------------------------------------------
    # VMs
    # ------------------------------------------------------------------
    def create_vm(self, name: str, virtual_ip: str, site: Site,
                  cpu_speed: float = 1.0, image=None,
                  extra_nats=None, start: bool = False,
                  interface_mode: str = "nat") -> "WowVm":
        from repro.vm.machine import WowVm  # local import to avoid cycle
        if name in self.vms:
            raise ValueError(f"duplicate VM name {name}")
        vm = WowVm(self, name, virtual_ip, site, cpu_speed=cpu_speed,
                   image=image, extra_nats=extra_nats,
                   interface_mode=interface_mode)
        self.vms[name] = vm
        if start:
            vm.start()
        return vm

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def ring_nodes(self) -> list[BrunetNode]:
        """All live nodes sorted by ring address (snapshot copy of the
        incrementally-maintained :class:`RingIndex` — no per-call sort)."""
        return list(self.ring_index.items)

    def ring_consistent(self) -> bool:
        """Every live node is in the ring and its left / right neighbours
        are its true predecessor / successor (:func:`ring_verdict`)."""
        return not ring_verdict([n.census() for n in self.ring_index.items])
