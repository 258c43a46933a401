"""Deployment wiring and the paper testbed's Table I / Figure 1 shape."""

import pytest

from repro.core.config import (
    CalibrationConfig,
    COMPUTE_NODES,
    PLANETLAB_ROUTERS,
    SITE_SPECS,
    TABLE1_HOSTS,
)
from tests.conftest import make_mini_testbed


@pytest.fixture(scope="module")
def bed():
    return make_mini_testbed(seed=77)


class TestTable1:
    def test_33_compute_hosts_defined(self):
        assert len(TABLE1_HOSTS) == COMPUTE_NODES == 33

    def test_site_distribution_matches_figure1(self):
        by_site = {}
        for h in TABLE1_HOSTS:
            by_site[h.site] = by_site.get(h.site, 0) + 1
        assert by_site == {"ufl": 15, "nwu": 13, "lsu": 2, "ncgrid": 1,
                           "vims": 1, "gru": 1}

    def test_118_planetlab_routers_default(self):
        assert PLANETLAB_ROUTERS == 118

    def test_ufl_nat_has_no_hairpin_nwu_does(self):
        assert SITE_SPECS["ufl"].nat_hairpin is False
        assert SITE_SPECS["nwu"].nat_hairpin is True

    def test_speed_ratio_matches_table3_sequential_times(self):
        """node034's speed is set so 22272 / speed ≈ 45191 (Table III)."""
        gru = [h for h in TABLE1_HOSTS if h.site == "gru"][0]
        assert 22272 / gru.cpu_speed == pytest.approx(45191, rel=0.02)


class TestBuiltTestbed:
    def test_virtual_ips_are_paper_addresses(self, bed):
        sim, tb = bed
        assert tb.vm(2).virtual_ip == "172.16.1.2"
        assert tb.vm(34).virtual_ip == "172.16.1.34"
        assert len(tb.vms) == 33

    def test_all_vms_join_and_ring_consistent(self, bed):
        sim, tb = bed
        assert all(vm.node.in_ring for vm in tb.vms.values())
        assert tb.deployment.ring_consistent()

    def test_private_sites_are_nated(self, bed):
        sim, tb = bed
        dep = tb.deployment
        for name in ("ufl", "nwu", "lsu", "ncgrid", "vims", "gru"):
            assert dep.sites[name].is_private
        assert not dep.sites["planetlab"].is_private

    def test_gru_vm_behind_nat_chain(self, bed):
        sim, tb = bed
        vm = tb.vm(34)
        assert len(vm.host.nat_chain) == 2  # VMware NAT + home router

    def test_head_is_node002(self, bed):
        sim, tb = bed
        assert tb.head is tb.vm(2)
        assert len(tb.workers()) == 32

    def test_resolve_maps_every_vm(self, bed):
        sim, tb = bed
        for vm in tb.vms.values():
            assert tb.deployment.resolve(vm.addr) is vm.node

    def test_ncgrid_firewall_single_port(self, bed):
        sim, tb = bed
        fw = tb.deployment.sites["ncgrid"].firewall
        assert fw is not None
        assert fw.allows_inbound(14001)
        assert not fw.allows_inbound(14002)


class TestCalibrationConfig:
    def test_defaults_are_self_consistent(self):
        calib = CalibrationConfig()
        # UFL-NWU one-way latency → ~38 ms direct RTT incl. guest processing
        rtt = 2 * (calib.wan_latency[frozenset({"ufl", "nwu"})]
                   + 2 * calib.guest_proc_delay)
        assert 0.033 <= rtt <= 0.043
        assert calib.virt_overhead == pytest.approx(0.13)
        assert calib.planetlab_capacity_median < calib.ufl_lan_capacity
