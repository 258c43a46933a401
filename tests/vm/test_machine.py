"""WowVm: images, CPU model, IPOP restart, WAN migration."""

import pytest

from repro.sim.process import Process, WaitSignal
from repro.sim.units import MB
from repro.vm.image import DEFAULT_IMAGE, VmImage
from tests.conftest import make_mini_testbed


@pytest.fixture()
def bed():
    return make_mini_testbed(seed=7)


class TestImage:
    def test_clone_tracking(self):
        img = VmImage("base")
        img.clone("n1").clone("n2")
        assert img.clone_count == 2

    def test_base_has_ipop(self):
        assert DEFAULT_IMAGE.has_software("ipop")


class TestCpuModel:
    def test_compute_time_scales_with_speed(self, bed):
        sim, tb = bed
        fast = tb.vm(30)  # lsu, 1.33x
        slow = tb.vm(32)  # ncgrid, 0.54x
        calib = tb.deployment.calib
        w = 10.0
        t_fast = fast.host.compute_time(w * (1 + calib.virt_overhead))
        t_slow = slow.host.compute_time(w * (1 + calib.virt_overhead))
        assert t_slow / t_fast == pytest.approx(1.33 / 0.54, rel=0.01)

    def test_load_inflates_compute(self, bed):
        sim, tb = bed
        vm = tb.vm(3)
        base = vm.host.compute_time(10.0)
        vm.host.load = 1.0
        assert vm.host.compute_time(10.0) == pytest.approx(2 * base)
        vm.host.load = 0.0

    def test_run_compute_duration(self, bed):
        sim, tb = bed
        vm = tb.vm(3)  # speed 1.0
        t0 = sim.now
        proc = vm.run_compute(10.0)
        sim.run(until=sim.now + 60)
        assert proc.done.fired
        expected = 10.0 * (1 + tb.deployment.calib.virt_overhead)
        # fired via a 0-delay event after the last slice
        assert sim.now >= t0


class TestRestartAndMigration:
    def test_restart_ipop_rejoins_with_same_address(self, bed):
        sim, tb = bed
        vm = tb.vm(5)
        addr_before = vm.addr
        vm.restart_ipop()
        sim.run(until=sim.now + 60)
        assert vm.node.addr == addr_before
        assert vm.node.in_ring
        assert tb.deployment.resolve(vm.addr) is vm.node

    def test_migration_moves_site_and_rejoins(self, bed):
        sim, tb = bed
        vm = tb.vm(6)  # UFL
        dest = tb.deployment.sites["nwu"]
        done = vm.migrate(dest, transfer_size=MB(40.0))
        sim.run(until=sim.now + 600)
        assert done.fired
        record = done.value
        assert record.src_site == "ufl" and record.dst_site == "nwu"
        assert vm.host.site is dest
        sim.run(until=sim.now + 120)
        assert vm.node.in_ring
        assert record.outage > 0

    def test_migration_outage_scales_with_image_size(self, bed):
        sim, tb = bed
        vm_small = tb.vm(7)
        vm_large = tb.vm(8)
        dest = tb.deployment.sites["lsu"]
        d1 = vm_small.migrate(dest, transfer_size=MB(10.0))
        sim.run(until=sim.now + 2000)
        d2 = vm_large.migrate(dest, transfer_size=MB(100.0))
        sim.run(until=sim.now + 2000)
        assert d1.fired and d2.fired
        assert d2.value.outage > d1.value.outage

    def test_suspension_pauses_compute(self, bed):
        sim, tb = bed
        vm = tb.vm(9)
        proc = vm.run_compute(30.0)
        sim.run(until=sim.now + 5)
        done = vm.migrate(tb.deployment.sites["nwu"],
                          transfer_size=MB(30.0))
        sim.run(until=sim.now + 2000)
        assert done.fired and proc.done.fired
        # compute must have taken at least the outage longer than nominal
        record = done.value
        assert record.outage > 20.0

    def test_cpu_speed_change_on_migration(self, bed):
        sim, tb = bed
        vm = tb.vm(10)
        done = vm.migrate(tb.deployment.sites["nwu"],
                          transfer_size=MB(10.0), dest_cpu_speed=0.83)
        sim.run(until=sim.now + 600)
        assert done.fired
        assert vm.cpu_speed == 0.83
        assert vm.host.cpu_speed == 0.83
