"""The paper's testbed (Figure 1 / Table I).

33 compute VMs across six firewalled domains plus 118 PlanetLab router
nodes.  Virtual IPs are ``172.16.1.2`` … ``172.16.1.34``; node034 is the
home-network machine behind multiple NAT levels (VMware + wireless router +
ISP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.brunet.config import BrunetConfig
from repro.core.config import (
    CalibrationConfig,
    PLANETLAB_HOSTS,
    PLANETLAB_ROUTERS,
    SITE_SPECS,
    TABLE1_HOSTS,
)
from repro.core.wow import Deployment
from repro.phys.nat import Nat, NatSpec
from repro.vm.image import VmImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.vm.machine import WowVm


@dataclass
class Testbed:
    """Handle to a constructed paper testbed."""

    deployment: Deployment
    vms: dict[str, "WowVm"] = field(default_factory=dict)
    warmup_until: float = 0.0

    @property
    def sim(self):
        return self.deployment.sim

    def vm(self, number: int) -> "WowVm":
        """``vm(2)`` → node002 (virtual IP 172.16.1.2)."""
        return self.vms[f"node{number:03d}"]

    @property
    def head(self) -> "WowVm":
        """Conventional head node (PBS server / NFS export), node002."""
        return self.vm(2)

    def workers(self) -> list["WowVm"]:
        return [vm for name, vm in sorted(self.vms.items())
                if vm is not self.head]

    def run_warmup(self, settle: float = 120.0,
                   max_extra: float = 1200.0) -> None:
        """Advance the simulation until all joins have settled *and* the
        ring is consistent.

        UFL-UFL near links need the full hairpin/back-off ladder (~155 s per
        dead URI — the Fig. 4 behaviour), so a mature overlay like the
        paper's month-old deployment takes several hundred simulated seconds
        to converge.
        """
        self.sim.run(until=self.warmup_until + settle)
        deadline = self.sim.now + max_extra
        while not self.deployment.ring_consistent() \
                and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 60.0)


def build_paper_testbed(sim: "Simulator",
                        calib: Optional[CalibrationConfig] = None,
                        brunet_config: Optional[BrunetConfig] = None,
                        n_planetlab_routers: int = PLANETLAB_ROUTERS,
                        n_planetlab_hosts: int = PLANETLAB_HOSTS,
                        n_compute: int = 33,
                        vm_stagger: float = 4.0,
                        start_vms: bool = True) -> Testbed:
    """Construct (and begin starting) the Figure 1 testbed.

    ``n_planetlab_routers``/``n_compute`` can be scaled down for fast tests
    and benchmarks; defaults match the paper.
    """
    deployment = Deployment(sim, calib=calib, brunet_config=brunet_config)
    for spec in SITE_SPECS.values():
        deployment.add_site(spec)
    deployment.add_planetlab(n_hosts=n_planetlab_hosts,
                             n_routers=n_planetlab_routers)
    bootstrap_done = n_planetlab_routers * 0.6 + 30.0

    image = VmImage("wow-base")
    testbed = Testbed(deployment)
    hosts = TABLE1_HOSTS[:n_compute]
    for index, host_spec in enumerate(hosts):
        number = index + 2  # node002 is the first compute node
        name = f"node{number:03d}"
        virtual_ip = f"172.16.1.{number}"
        site = deployment.sites[host_spec.site]
        extra_nats = None
        if host_spec.site == "gru":
            # home network: guest additionally behind a VMware NAT inside
            # the broadband router's subnet (§V-A, Fig. 1).  The guest IP
            # is re-homed into the VMware subnet so the chain nests.
            vmware = Nat("nat.gru.vmware", "10.6.0.1", "10.6.200.",
                         NatSpec.cone(hairpin=True), clock=sim)
            deployment.internet.register_nat(vmware)
            extra_nats = [vmware]
        vm = deployment.create_vm(name, virtual_ip, site,
                                  cpu_speed=host_spec.cpu_speed, image=image,
                                  extra_nats=extra_nats)
        if extra_nats is not None:
            # move the guest's address inside the innermost NAT's subnet
            vm.host.rehome("10.6.200.2")
            vm.node.uris.local = vm.node.uris.local._replace(
                endpoint=vm.node.uris.local.endpoint._replace(ip=vm.host.ip))
        testbed.vms[name] = vm
        if start_vms:
            sim.schedule(bootstrap_done + index * vm_stagger, vm.start)
    testbed.warmup_until = bootstrap_done + len(hosts) * vm_stagger + 30.0
    return testbed
