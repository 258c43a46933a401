"""Internet datagram routing across sites, NAT chains, firewalls."""

import pytest

from repro.obs.spans import TraceRef
from repro.phys import Datagram, Endpoint, Internet, NatSpec, Site
from repro.phys.nat import FirewallPolicy, Nat
from repro.sim import Simulator


@pytest.fixture
def world():
    sim = Simulator(seed=3)
    net = Internet(sim)
    return sim, net


def recv_log(host, port):
    log = []
    host.bind_udp(port, lambda p, src, sz: log.append((p, src)))
    return log


def test_public_to_public_delivery(world):
    sim, net = world
    site = Site(net, "pub")
    a, b = site.add_host("a"), site.add_host("b")
    log = recv_log(b, 1000)
    a.bind_udp(1000, lambda *a_: None)
    a.sockets[1000].send(Endpoint(b.ip, 1000), "hi", 10)
    sim.run()
    assert log == [("hi", Endpoint(a.ip, 1000))]


def test_private_to_public_snat_and_reply(world):
    sim, net = world
    priv = Site(net, "campus", subnet="10.9.", nat_spec=NatSpec.cone())
    pub = Site(net, "pub")
    a, b = priv.add_host("a"), pub.add_host("b")
    blog = recv_log(b, 1000)
    alog = recv_log(a, 1000)
    a.sockets[1000].send(Endpoint(b.ip, 1000), "req", 10)
    sim.run()
    (_, observed), = blog
    assert observed.ip == priv.nat.public_ip  # source was translated
    b.sockets[1000].send(observed, "resp", 10)
    sim.run()
    assert [p for p, _ in alog] == ["resp"]


def test_only_a_traced_datagram_labels_its_nat_hops(world):
    """The NAT walk records ``path`` for the ``phys.tx`` span of a traced
    datagram, and leaves an untraced one's empty: nothing reads it."""
    sim, net = world
    sim.obs.spans.enabled = True
    home = Site(net, "home", subnet="10.6.", nat_spec=NatSpec.cone())
    a, b = home.add_host("a"), Site(net, "pub").add_host("b")
    recv_log(a, 1000)
    recv_log(b, 1000)
    traced = Datagram(Endpoint(a.ip, 1000), Endpoint(b.ip, 1000), "t", 10)
    traced.trace = TraceRef(1, None)
    plain = Datagram(Endpoint(a.ip, 1000), Endpoint(b.ip, 1000), "p", 10)
    net.send(a, traced)
    net.send(a, plain)
    sim.run()
    reply = Datagram(Endpoint(b.ip, 1000), traced.src, "r", 10)
    reply.trace = TraceRef(2, None)
    net.send(b, reply)
    sim.run()
    paths = [s.attrs["path"] for s in sim.obs.spans.spans
             if s.name == "phys.tx"]
    assert paths == [f"snat:{home.nat.name}", f"dnat:{home.nat.name}"]
    assert plain.path == ()


def test_intra_site_bypasses_nat(world):
    sim, net = world
    priv = Site(net, "campus", subnet="10.9.", nat_spec=NatSpec.cone())
    a, b = priv.add_host("a"), priv.add_host("b")
    blog = recv_log(b, 1000)
    a.bind_udp(1000, lambda *a_: None)
    a.sockets[1000].send(Endpoint(b.ip, 1000), "lan", 10)
    sim.run()
    (_, observed), = blog
    assert observed == Endpoint(a.ip, 1000)  # untranslated


def test_hairpin_dropped_without_support(world):
    sim, net = world
    priv = Site(net, "ufl", subnet="10.9.",
                nat_spec=NatSpec.cone(hairpin=False))
    pub = Site(net, "pub")
    a, b = priv.add_host("a"), priv.add_host("b")
    ext = pub.add_host("ext")
    # establish b's public mapping via an outbound packet
    elog = recv_log(ext, 500)
    b.bind_udp(600, lambda *a_: None)
    b.sockets[600].send(Endpoint(ext.ip, 500), "x", 10)
    sim.run()
    (_, b_pub), = elog
    # a sends to b's NAT-assigned public endpoint: hairpin → dropped
    a.bind_udp(700, lambda *a_: None)
    a.sockets[700].send(b_pub, "hair", 10)
    sim.run()
    assert net.drops[f"hairpin:{priv.nat.name}"] == 1


def test_hairpin_delivered_with_support(world):
    sim, net = world
    priv = Site(net, "nwu", subnet="10.9.",
                nat_spec=NatSpec.cone(hairpin=True))
    pub = Site(net, "pub")
    a, b = priv.add_host("a"), priv.add_host("b")
    ext = pub.add_host("ext")
    elog = recv_log(ext, 500)
    blog = recv_log(b, 600)
    b.sockets[600].send(Endpoint(ext.ip, 500), "x", 10)
    sim.run()
    (_, b_pub), = elog
    # hole-punch: b must have contacted a's public mapping for filtering
    a.bind_udp(700, lambda *a_: None)
    a.sockets[700].send(Endpoint(ext.ip, 500), "y", 10)
    sim.run()
    a_pub = elog[-1][1]
    b.sockets[600].send(a_pub, "punch", 10)  # opens b's filter toward a
    sim.run()
    a.sockets[700].send(b_pub, "hairpinned", 10)
    sim.run()
    assert ("hairpinned", a_pub) in blog


def test_unroutable_destination_counted(world):
    sim, net = world
    site = Site(net, "pub")
    a = site.add_host("a")
    a.bind_udp(1, lambda *a_: None)
    a.sockets[1].send(Endpoint("99.99.99.99", 5), "void", 10)
    sim.run()
    assert net.drops["unroutable"] == 1


def test_firewall_blocks_foreign_inbound(world):
    sim, net = world
    fw_site = Site(net, "ncgrid",
                   firewall=FirewallPolicy(open_udp_ports=frozenset({14001})))
    pub = Site(net, "pub")
    a = fw_site.add_host("a")
    b = pub.add_host("b")
    open_log = recv_log(a, 14001)
    closed_log = recv_log(a, 2000)
    b.bind_udp(1, lambda *a_: None)
    b.sockets[1].send(Endpoint(a.ip, 14001), "ok", 10)
    b.sockets[1].send(Endpoint(a.ip, 2000), "blocked", 10)
    sim.run()
    assert [p for p, _ in open_log] == ["ok"]
    assert closed_log == []
    # intra-site traffic is not firewalled
    c = fw_site.add_host("c")
    c.bind_udp(1, lambda *a_: None)
    c.sockets[1].send(Endpoint(a.ip, 2000), "lan", 10)
    sim.run()
    assert [p for p, _ in closed_log] == ["lan"]


def test_nat_chain_two_levels(world):
    """Guest behind VMware NAT behind a home-router NAT."""
    sim, net = world
    home = Site(net, "home", subnet="10.6.", nat_spec=NatSpec.cone())
    pub = Site(net, "pub")
    vmware = Nat("vmware", "10.6.0.1", "10.6.200.", NatSpec.cone(), clock=sim)
    net.register_nat(vmware)
    guest = home.add_host("guest", ip="10.6.200.2", extra_nats=[vmware])
    ext = pub.add_host("ext")
    elog = recv_log(ext, 500)
    glog = recv_log(guest, 600)
    guest.sockets[600].send(Endpoint(ext.ip, 500), "out", 10)
    sim.run()
    (_, g_pub), = elog
    assert g_pub.ip == home.nat.public_ip  # outermost NAT's address
    ext.sockets[500].send(g_pub, "back", 10)
    sim.run()
    assert [p for p, _ in glog] == ["back"]


def test_host_down_drops(world):
    sim, net = world
    site = Site(net, "pub")
    a, b = site.add_host("a"), site.add_host("b")
    recv_log(b, 9)
    b.shutdown()
    a.bind_udp(9, lambda *a_: None)
    a.sockets[9].send(Endpoint(b.ip, 9), "gone", 10)
    sim.run()
    assert net.drops["unroutable"] + net.drops["host-down"] >= 1
