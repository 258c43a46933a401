"""Overlay integration: join, ring consistency, greedy routing, repair."""

import numpy as np
import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.connection import ConnectionType
from repro.brunet.messages import IpEncap
from repro.brunet.routing import next_hop, overlay_hop_count, trace_route
from repro.brunet.uri import Uri
from repro.phys import Internet, Site
from repro.sim import Simulator
from tests.conftest import build_overlay


def registry(nodes):
    reg = {n.addr: n for n in nodes}
    return reg.get


def sorted_ring(nodes):
    return sorted(nodes, key=lambda n: int(n.addr))


class TestJoin:
    def test_all_nodes_join_ring(self, sim, internet, small_overlay):
        assert all(n.in_ring for n in small_overlay)

    def test_ring_successor_links_complete(self, sim, internet,
                                           small_overlay):
        ring = sorted_ring(small_overlay)
        for i, node in enumerate(ring):
            succ = ring[(i + 1) % len(ring)]
            assert node.table.get(succ.addr) is not None, \
                f"{node.name} missing successor {succ.name}"

    def test_join_latency_seconds(self, sim, internet):
        nodes, bootstrap = build_overlay(sim, internet, 8)
        site = Site(internet, "late")
        host = site.add_host("late0")
        rng = sim.rng.stream("t")
        node = BrunetNode(sim, host, random_address(rng), BrunetConfig(),
                          name="late")
        t0 = sim.now
        node.start(bootstrap)
        sim.run(until=sim.now + 30)
        assert node.joined_at is not None
        assert node.joined_at - t0 < 10.0  # paper: 90% within 10 s

    def test_far_connections_form(self, sim, internet, small_overlay):
        far_counts = [len(n.table.by_type(ConnectionType.STRUCTURED_FAR))
                      for n in small_overlay]
        assert np.mean(far_counts) >= 1.0


class TestRouting:
    def test_all_pairs_routable(self, sim, internet, small_overlay):
        reg = registry(small_overlay)
        for a in small_overlay:
            for b in small_overlay:
                if a is b:
                    continue
                assert overlay_hop_count(a, b.addr, reg) is not None

    def test_greedy_hops_scale(self, sim, internet, small_overlay):
        reg = registry(small_overlay)
        hops = [overlay_hop_count(a, b.addr, reg)
                for a in small_overlay for b in small_overlay if a is not b]
        assert np.mean(hops) < 4.0

    def test_greedy_strictly_decreases_distance(self, sim, internet,
                                                small_overlay):
        from repro.brunet.address import ring_distance
        reg = registry(small_overlay)
        a, b = small_overlay[0], small_overlay[-1]
        path = trace_route(a, b.addr, reg)
        dists = [ring_distance(n.addr, b.addr) for n in path]
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))

    def test_exact_packet_to_absent_address_dropped(self, sim, internet,
                                                    small_overlay):
        src = small_overlay[0]
        ghost = random_address(sim.rng.stream("ghost"))
        before = sum(n.stats["undeliverable"] for n in small_overlay)
        src.send_routed(ghost, IpEncap("x", 10), size=10, exact=True)
        sim.run(until=sim.now + 5)
        after = sum(n.stats["undeliverable"] for n in small_overlay)
        assert after == before + 1

    def test_inexact_packet_delivered_at_nearest(self, sim, internet,
                                                 small_overlay):
        from repro.brunet.address import ring_distance
        src = small_overlay[0]
        ghost = random_address(sim.rng.stream("ghost2"))
        nearest = min(small_overlay,
                      key=lambda n: ring_distance(n.addr, ghost))
        got = []
        before = nearest.stats["delivered"]
        src.send_routed(ghost, IpEncap("x", 10), size=10, exact=False)
        sim.run(until=sim.now + 5)
        assert nearest.stats["delivered"] >= before  # reached the minimum

    def test_ttl_prevents_loops(self, sim, internet, small_overlay):
        src = small_overlay[0]
        dst = small_overlay[-1]
        from repro.brunet.messages import RoutedPacket
        pkt = RoutedPacket(src=src.addr, dest=dst.addr, payload=IpEncap("x", 1),
                           size=1, exact=True, ttl=1)
        src.route(pkt)
        sim.run(until=sim.now + 5)
        # either delivered in 1 hop or ttl-dropped; never infinite
        assert sim.pending() < 1000


class TestRepair:
    def test_ring_heals_after_node_death(self, sim, internet):
        nodes, bootstrap = build_overlay(sim, internet, 10)
        ring = sorted_ring(nodes)
        victim = ring[4]
        left, right = ring[3], ring[5]
        victim.stop()
        live = [n for n in nodes if n is not victim]
        # keep-alive detects death, near overlord re-announces
        sim.run(until=sim.now + 180)
        assert left.table.get(right.addr) is not None
        reg = registry(live)
        assert overlay_hop_count(left, right.addr, reg) is not None

    def test_rejoin_after_restart_same_address(self, sim, internet):
        nodes, bootstrap = build_overlay(sim, internet, 8)
        node = nodes[3]
        addr, host = node.addr, node.host
        node.stop()
        sim.run(until=sim.now + 90)
        node2 = BrunetNode(sim, host, addr, BrunetConfig(), name="reborn")
        node2.start(bootstrap)
        sim.run(until=sim.now + 60)
        assert node2.in_ring

    def test_node_stop_releases_socket(self, sim, internet, small_overlay):
        node = small_overlay[2]
        port = node.port
        node.stop()
        assert port not in node.host.sockets
