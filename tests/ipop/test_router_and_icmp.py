"""IPOP layer: mapping, tap dispatch, ICMP echo over the overlay."""

import numpy as np
import pytest

from repro.brunet import BrunetConfig, BrunetNode
from repro.ipop import IpopRouter, Pinger, addr_for_ip
from repro.ipop.ippacket import IcmpEcho
from repro.phys import Internet, Site
from repro.sim import Simulator
from repro.brunet.uri import Uri


def make_pair(sim, net, n_extra=4):
    """Two IPOP endpoints joined through a small public overlay."""
    site = Site(net, "pub")
    cfg = BrunetConfig()
    bootstrap = []
    routers = []
    for i in range(n_extra):
        host = site.add_host(f"r{i}")
        from repro.brunet.address import random_address
        node = BrunetNode(sim, host, random_address(sim.rng.stream("r")),
                          cfg, name=f"r{i}")
        node.start(list(bootstrap))
        if not bootstrap:
            bootstrap.append(Uri.udp(host.ip, node.port))
        routers.append(node)
        sim.run(until=sim.now + 3)

    endpoints = []
    for idx, ip in enumerate(("172.16.5.2", "172.16.5.3")):
        host = site.add_host(f"e{idx}")
        node = BrunetNode(sim, host, addr_for_ip(ip), cfg, name=f"e{idx}")
        router = IpopRouter(node, ip)
        node.start(list(bootstrap))
        endpoints.append(router)
        sim.run(until=sim.now + 3)
    sim.run(until=sim.now + 40)
    return endpoints


def test_addr_mapping_matches_node_requirement():
    ip = "172.16.1.9"
    assert addr_for_ip(ip) == addr_for_ip(ip)
    sim = Simulator(seed=1)
    net = Internet(sim)
    site = Site(net, "p")
    host = site.add_host("h")
    node = BrunetNode(sim, host, addr_for_ip(ip), BrunetConfig())
    router = IpopRouter(node, ip)
    assert router.addr == node.addr
    with pytest.raises(ValueError):
        IpopRouter(node, "172.16.1.10")


def test_udp_packet_delivery(sim, internet):
    a, b = make_pair(sim, internet)
    got = []
    b.bind("udp", 9000, lambda pkt: got.append(pkt.payload))
    a.send_ip(b.virtual_ip, "udp", 9000, {"msg": 1}, 100)
    sim.run(until=sim.now + 5)
    assert got == [{"msg": 1}]


def test_unbound_port_counted(sim, internet):
    a, b = make_pair(sim, internet)
    a.send_ip(b.virtual_ip, "udp", 12345, "x", 10)
    sim.run(until=sim.now + 5)
    assert b.node.stats["ip_port_unreachable"] == 1


def test_icmp_echo_round_trip(sim, internet):
    a, b = make_pair(sim, internet)
    pinger = Pinger(a)
    done = pinger.run(b.virtual_ip, count=10, interval=0.5)
    sim.run(until=sim.now + 10)
    stats = done.value
    assert stats.loss_fraction() < 0.3
    assert 0 < stats.mean_rtt() < 0.5


def test_ping_to_absent_ip_all_lost(sim, internet):
    a, b = make_pair(sim, internet)
    pinger = Pinger(a)
    done = pinger.run("172.16.99.99", count=5, interval=0.5)
    sim.run(until=sim.now + 10)
    stats = done.value
    assert stats.loss_fraction() == 1.0
    assert stats.first_reply_seq() is None


def test_pingstats_accounting():
    from repro.ipop.icmp import PingStats
    st = PingStats(5)
    st.record(0, 0.040)
    st.record(2, 0.050)
    assert st.first_reply_seq() == 0
    assert st.loss_fraction() == pytest.approx(3 / 5)
    assert st.mean_rtt() == pytest.approx(0.045)
    assert st.loss_fraction(0, 1) == 0.0
    st.record(99, 1.0)  # out of range: ignored
    assert np.isnan(st.rtt[4])


def test_router_reattach_keeps_bindings(sim, internet):
    a, b = make_pair(sim, internet)
    got = []
    b.bind("udp", 700, lambda pkt: got.append(pkt.payload))
    # simulate IPOP restart on b
    old_node = b.node
    old_node.stop()
    new_node = BrunetNode(sim, old_node.host, b.addr, old_node.config,
                          name="e1-re")
    b.detach()
    b.attach(new_node)
    new_node.start(a.node.bootstrap_uris or
                   [Uri.udp(a.node.host.ip, a.node.port)])
    sim.run(until=sim.now + 40)
    a.send_ip(b.virtual_ip, "udp", 700, "after-restart", 20)
    sim.run(until=sim.now + 5)
    assert got == ["after-restart"]


def test_ring_address_is_hashed_once_per_destination(monkeypatch):
    """``_transmit`` used to SHA-1 the destination IP on every packet;
    the router now remembers the ring address, in a dict of its own that
    is emptied at a fixed cap, and keeps it across detach/attach (the
    mapping depends on the IP alone)."""
    from repro.ipop import router as router_mod
    hashed = []

    def counting(ip):
        hashed.append(ip)
        return addr_for_ip(ip)

    sim = Simulator(seed=1)
    site = Site(Internet(sim), "p")
    ip = "172.16.1.9"
    node = BrunetNode(sim, site.add_host("h"), addr_for_ip(ip), BrunetConfig())
    router = IpopRouter(node, ip)
    monkeypatch.setattr(router_mod, "addr_for_ip", counting)
    for _ in range(10_000):
        router.send_ip("172.16.1.10", "udp", 9, "x", 10)
    assert hashed == ["172.16.1.10"] and router.packets_out == 10_000

    router.detach()
    fresh = BrunetNode(sim, node.host, router.addr, node.config, name="re")
    router.attach(fresh)
    router.send_ip("172.16.1.10", "udp", 9, "x", 10)
    assert len(hashed) == 1 and fresh.ip_handler is not None

    cap = router_mod.ADDR_MEMO_MAX
    for host in range(cap + 50):
        router.send_ip(f"172.17.{host // 250}.{host % 250 + 2}", "udp", 9,
                       "x", 10)
        assert len(router._dest_addrs) <= cap
    assert len(hashed) == 1 + cap + 50
    # the memo answers what the hash answers, also after it was emptied
    assert all(addr == addr_for_ip(dst)
               for dst, addr in router._dest_addrs.items())
    # and it is this router's, not the process's
    other = IpopRouter(BrunetNode(sim, site.add_host("h2"),
                                  addr_for_ip("172.16.1.11"), BrunetConfig()),
                       "172.16.1.11")
    assert other._dest_addrs == {}
