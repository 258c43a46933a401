"""WowVm: one running WOW guest.

The VM owns (a) a guest :class:`~repro.phys.host.Host` for its network
presence — sitting behind the site NAT exactly like a VMware NAT-mode
guest, (b) a :class:`~repro.brunet.node.BrunetNode` + IPOP tap, (c) a
chunked CPU so computations stretch across suspensions, and (d) WAN
migration: suspend → ship memory/COW logs at WAN speed → resume at the
destination with a *new* physical address → kill-and-restart IPOP, which
rejoins the ring under the unchanged virtual IP (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.brunet.node import BrunetNode
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.phys.flows import Flow
from repro.sim.process import Process, Signal, Timeout, WaitSignal
from repro.vm.image import DEFAULT_IMAGE, VmImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.wow import Deployment
    from repro.phys.host import Host
    from repro.phys.topology import Site

#: compute is executed in slices this long (ref-seconds) so suspension can
#: interrupt at slice boundaries
COMPUTE_SLICE = 2.0


@dataclass
class MigrationRecord:
    """Timeline of one migration, for the Fig. 6/7 experiments."""

    started_at: float
    suspend_done: float = 0.0
    transfer_done: float = 0.0
    resumed_at: float = 0.0
    rejoined_at: Optional[float] = None
    src_site: str = ""
    dst_site: str = ""

    @property
    def outage(self) -> float:
        """Suspend-to-resume wall time (virtual-IP outage lasts until the
        overlay rejoin completes, shortly after ``resumed_at``)."""
        return self.resumed_at - self.started_at


class WowVm:
    """A WOW compute node: guest VM + IPOP virtual networking."""

    def __init__(self, deployment: "Deployment", name: str, virtual_ip: str,
                 site: "Site", cpu_speed: float = 1.0,
                 image: Optional[VmImage] = None,
                 extra_nats: Optional[list] = None,
                 interface_mode: str = "nat"):
        self.deployment = deployment
        self.sim = deployment.sim
        self.name = name
        self.virtual_ip = virtual_ip
        self.addr = addr_for_ip(virtual_ip)
        self.image = image or DEFAULT_IMAGE
        self.cpu_speed = cpu_speed
        calib = deployment.calib
        self.host: "Host" = site.add_host(
            f"vm-{name}", cpu_speed=cpu_speed,
            proc_delay_mean=calib.guest_proc_delay,
            extra_nats=extra_nats)
        self.host.ipop_forward_capacity = calib.compute_forward_capacity
        if interface_mode not in ("nat", "host-only"):
            raise ValueError(f"unknown interface mode {interface_mode!r}")
        self.interface_mode = interface_mode
        self.node = BrunetNode(self.sim, self.host, self.addr,
                               deployment.brunet_config, name=f"ipop.{name}")
        if interface_mode == "host-only":
            # §V-E: "the use of a host-only interface will further improve
            # the isolation of WOW nodes from the physical network" — the
            # guest's only physical presence is the IPOP socket
            self.host.allowed_ports = {self.node.port}
        self.router = IpopRouter(self.node, virtual_ip)
        self.suspended = False
        self.resumed = Signal(self.sim, f"{name}.resumed")
        self.migrations: list[MigrationRecord] = []
        self.started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the guest and join the overlay."""
        self.node.start(self.deployment.bootstrap_uris)
        self.deployment.register_node(self.node)
        self.started = True

    def stop(self) -> None:
        """Power the guest off (IPOP leaves the overlay)."""
        self.deployment.unregister_node(self.node)
        self.node.stop()
        self.started = False

    def restart_ipop(self) -> None:
        """Kill and restart the user-level IPOP program (§V-C): new node
        object, same ring address, same tap state."""
        self._kill_ipop()
        self._boot_ipop()

    def _kill_ipop(self) -> None:
        """The IPOP process dies: its node leaves the overlay and the tap
        loses its router."""
        self.deployment.unregister_node(self.node)
        self.node.stop()
        self.router.detach()

    def _boot_ipop(self) -> None:
        """A fresh IPOP process on the current host: a new node with the
        same ring address, under the tap's router, joining at once."""
        self.node = BrunetNode(self.sim, self.host, self.addr,
                               self.deployment.brunet_config,
                               name=f"ipop.{self.name}")
        if self.interface_mode == "host-only":
            self.host.allowed_ports = {self.node.port}
        self.router.attach(self.node)
        self.node.start(self.deployment.bootstrap_uris)
        self.deployment.register_node(self.node)

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def compute(self, work_ref_seconds: float):
        """Generator: execute guest compute, pausing across suspensions.

        Wall time per slice reflects host speed, host background load and
        the machine-virtualization overhead (§V-D1's 13%).
        """
        overhead = 1.0 + self.deployment.calib.virt_overhead
        remaining = work_ref_seconds
        while remaining > 0:
            if self.suspended:
                yield WaitSignal(self.resumed)
                continue
            slice_ref = min(COMPUTE_SLICE, remaining)
            yield Timeout(self.host.compute_time(slice_ref * overhead))
            remaining -= slice_ref

    def run_compute(self, work_ref_seconds: float) -> Process:
        """Spawn :meth:`compute` as a process; ``.done`` fires at the end."""
        return Process(self.sim, self.compute(work_ref_seconds),
                       name=f"{self.name}.compute")

    # ------------------------------------------------------------------
    # migration (§V-C)
    # ------------------------------------------------------------------
    def migrate(self, dest_site: "Site",
                transfer_size: Optional[float] = None,
                dest_cpu_speed: Optional[float] = None) -> Signal:
        """Begin a WAN live migration; returns a latched Signal fired with
        the :class:`MigrationRecord` when the VM is resumed and rejoining."""
        done = Signal(self.sim, f"{self.name}.migrated", latch=True)
        Process(self.sim, self._migrate_proc(dest_site, transfer_size,
                                             dest_cpu_speed, done),
                name=f"{self.name}.migrate")
        return done

    def _migrate_proc(self, dest_site: "Site",
                      transfer_size: Optional[float],
                      dest_cpu_speed: Optional[float], done: Signal):
        calib = self.deployment.calib
        record = MigrationRecord(started_at=self.sim.now,
                                 src_site=self.host.site.name,
                                 dst_site=dest_site.name)
        self.migrations.append(record)
        src_site = self.host.site

        # 1. suspend the guest; the IPOP process dies with it
        self.suspended = True
        self._kill_ipop()
        yield Timeout(calib.vm_suspend_overhead)
        record.suspend_done = self.sim.now

        # 2. ship memory image + copy-on-write logs over the physical WAN
        size = (calib.vm_image_transfer_size if transfer_size is None
                else transfer_size)
        broker = self.deployment.broker
        if src_site is dest_site:
            path = [broker.lan_resource(src_site.name)]
        else:
            path = [broker.wan_resource(src_site.name, dest_site.name)]
        flow = Flow(broker.flows, f"{self.name}.image", size, path)
        yield WaitSignal(flow.done)
        record.transfer_done = self.sim.now

        # 3. resume at the destination: new physical address (the VM "
        #    acquired a new physical address for eth0", §V-C1)
        self.deployment.internet.unregister_host(self.host)
        self.host.shutdown()
        old_host = self.host
        self.host = dest_site.add_host(
            f"vm-{self.name}@{dest_site.name}",
            cpu_speed=dest_cpu_speed if dest_cpu_speed is not None
            else self.cpu_speed,
            proc_delay_mean=calib.guest_proc_delay)
        self.host.ipop_forward_capacity = getattr(
            old_host, "ipop_forward_capacity",
            calib.compute_forward_capacity)
        if dest_cpu_speed is not None:
            self.cpu_speed = dest_cpu_speed
        yield Timeout(calib.vm_resume_overhead)

        # 4. restart IPOP: the tap (virtual IP) is unchanged; the node
        #    rejoins the overlay autonomously
        self._boot_ipop()
        self.suspended = False
        record.resumed_at = self.sim.now
        self.resumed.fire(record)
        self.sim.trace("vm.migrated", vm=self.name,
                       outage=record.outage, dst=dest_site.name)

        def note_join(_conn) -> None:
            if record.rejoined_at is None:
                record.rejoined_at = self.sim.now
        if self.node.joined_at is not None:  # pragma: no cover - instant join
            record.rejoined_at = self.node.joined_at
        else:
            self.node.on_connection.append(note_join)
        done.fire(record)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WowVm {self.name} {self.virtual_ip}@{self.host.site.name}>"
