"""FaultSchedule: scripted crashes, blackouts, loss bursts, NAT faults."""

import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.uri import Uri
from repro.fault import Blackout, BurstLoss, FaultSchedule
from repro.phys import Internet, NatSpec, Site
from repro.sim import Simulator
from tests.conftest import build_overlay


def _raw_pair(internet, site_a="sa", site_b="sb"):
    """Two public hosts with bound UDP sockets; returns (host_a, host_b,
    received list on b)."""
    a = Site(internet, site_a).add_host("ha")
    b = Site(internet, site_b).add_host("hb")
    got = []
    a.bind_udp(9000, lambda payload, src, size: None)
    b.bind_udp(9000, lambda payload, src, size: got.append(payload))
    return a, b, got


class TestNodeChurn:
    def test_crash_fires_at_scheduled_time_and_is_logged(self, sim, internet):
        nodes, _ = build_overlay(sim, internet, 4)
        faults = FaultSchedule(sim, internet)
        victim = nodes[2]
        event = faults.crash_node(sim.now + 25.0, victim)
        assert faults.armed == [event] and faults.fired == []
        sim.run(until=event.time - 1.0)
        assert victim.active
        sim.run(until=event.time + 1.0)
        assert not victim.active
        assert [(e.kind, e.detail) for e in faults.fired] \
            == [("node.crash", victim.name)]

    def test_restart_rejoins_the_ring(self, sim, internet):
        nodes, bootstrap = build_overlay(sim, internet, 5)
        faults = FaultSchedule(sim, internet)
        victim = nodes[3]
        faults.crash_node(sim.now + 5.0, victim)
        faults.restart_node(sim.now + 120.0, victim, bootstrap)
        sim.run(until=sim.now + 110.0)
        assert not victim.active
        sim.run(until=sim.now + 120.0)
        assert victim.active and victim.in_ring

    def test_crash_bootstrap_seed_resolves_victim_at_fire_time(self):
        from repro.core.wow import Deployment
        sim = Simulator(seed=7)
        dep = Deployment(sim)
        site = dep.add_public_site("pl")
        faults = FaultSchedule(sim, dep.internet)
        # armed before any seed exists: resolution must happen at fire time
        faults.crash_bootstrap_seed(40.0, dep, index=0)
        seed_node = dep.add_router_node(site.add_host("seed0"), seed=True)
        for i in range(3):
            dep.add_router_node(site.add_host(f"r{i}"))
            sim.run(until=sim.now + 3.0)
        sim.run(until=39.0)
        assert seed_node.active
        sim.run(until=41.0)
        assert not seed_node.active

    def test_host_crash_and_boot(self, sim, internet):
        site = Site(internet, "s")
        host = site.add_host("h")
        faults = FaultSchedule(sim, internet)
        faults.crash_host(10.0, host)
        faults.boot_host(20.0, host)
        sim.run(until=15.0)
        assert not host.up
        sim.run(until=25.0)
        assert host.up


class TestPathFaults:
    def test_blackout_window_drops_then_lifts(self, sim, internet):
        a, b, got = _raw_pair(internet)
        faults = FaultSchedule(sim, internet, name="f")
        rule = faults.blackout(10.0, 20.0, a, "sb")
        send = lambda tag: a.sockets[9000].send(b.sockets[9000].endpoint, tag)
        sim.schedule_at(5.0, send, "before")
        sim.schedule_at(15.0, send, "during")
        sim.schedule_at(35.0, send, "after")
        sim.run(until=40.0)
        assert got == ["before", "after"]
        assert rule.dropped == 1
        assert internet.drops[f"fault:{rule.name}"] == 1
        assert internet.fault_rules == []  # uninstalled at window end

    def test_blackout_symmetric_covers_reverse_direction(self, sim, internet):
        a, b, _ = _raw_pair(internet)
        got_a = []
        a.sockets[9000].handler = lambda payload, src, size: got_a.append(payload)
        faults = FaultSchedule(sim, internet)
        faults.blackout(0.0, 50.0, a, b, symmetric=True)
        sim.schedule_at(10.0, b.sockets[9000].send,
                        a.sockets[9000].endpoint, "rev")
        sim.run(until=20.0)
        assert got_a == []

    def test_burst_loss_extremes_and_window(self, sim, internet):
        a, b, got = _raw_pair(internet)
        faults = FaultSchedule(sim, internet, name="f")
        rule = faults.burst_loss(10.0, 10.0, prob=1.0, a=a, b=b)
        send = lambda tag: a.sockets[9000].send(b.sockets[9000].endpoint, tag)
        for t, tag in [(5.0, "pre"), (12.0, "in1"), (18.0, "in2"),
                       (25.0, "post")]:
            sim.schedule_at(t, send, tag)
        sim.run(until=30.0)
        assert got == ["pre", "post"]
        assert rule.dropped == 2

    def test_burst_loss_rejects_bad_probability(self, sim):
        with pytest.raises(ValueError):
            BurstLoss(1.5, sim.rng.stream("x"))

    def test_path_faults_require_an_internet(self, sim):
        faults = FaultSchedule(sim)  # no internet wired in
        with pytest.raises(ValueError):
            faults.blackout(0.0, 1.0)

    def test_unmatched_traffic_unaffected(self, sim, internet):
        a, b, got = _raw_pair(internet)
        c = Site(internet, "sc").add_host("hc")
        c.bind_udp(9000, lambda payload, src, size: None)
        faults = FaultSchedule(sim, internet)
        faults.blackout(0.0, 50.0, a, c)  # a<->c, not a<->b
        sim.schedule_at(10.0, a.sockets[9000].send,
                        b.sockets[9000].endpoint, "ok")
        sim.run(until=20.0)
        assert got == ["ok"]


class TestNatFaults:
    def _natted_pair(self, internet):
        priv = Site(internet, "home", subnet="10.9.",
                    nat_spec=NatSpec.cone())
        pub = Site(internet, "pub")
        inner = priv.add_host("inner")
        outer = pub.add_host("outer")
        inner.bind_udp(9000, lambda payload, src, size: None)
        outer.bind_udp(9000, lambda payload, src, size: None)
        return priv, inner, outer

    def test_nat_reboot_flushes_every_mapping(self, sim, internet):
        priv, inner, outer = self._natted_pair(internet)
        inner.sockets[9000].send(outer.sockets[9000].endpoint, "open")
        sim.run(until=1.0)
        assert priv.nat._by_key
        faults = FaultSchedule(sim, internet)
        faults.nat_reboot(5.0, priv.nat)
        sim.run(until=6.0)
        assert not priv.nat._by_key and not priv.nat._by_port
        assert [e.kind for e in faults.fired] == ["nat.reboot"]

    def test_nat_mapping_timeout_shrinks_expiry(self, sim, internet):
        priv, inner, outer = self._natted_pair(internet)
        original = priv.nat.spec.mapping_timeout
        faults = FaultSchedule(sim, internet)
        faults.nat_mapping_timeout(5.0, priv.nat, 2.0)
        sim.run(until=6.0)
        assert priv.nat.spec.mapping_timeout == 2.0 != original
        # a mapping opened under the shrunken window dies after 2 s idle
        inner.sockets[9000].send(outer.sockets[9000].endpoint, "open")
        mapping = next(iter(priv.nat._by_key.values()))
        assert not priv.nat._expired(mapping, sim.now)
        sim.run(until=sim.now + 5.0)
        assert priv.nat._expired(mapping, sim.now)


class TestDeterminism:
    def _scripted_run(self, seed):
        sim = Simulator(seed=seed)
        internet = Internet(sim)
        nodes, bootstrap = build_overlay(sim, internet, 5)
        faults = FaultSchedule(sim, internet, name="det")
        faults.crash_node(sim.now + 10.0, nodes[2])
        faults.burst_loss(sim.now + 5.0, 30.0, prob=0.5)
        faults.restart_node(sim.now + 90.0, nodes[2], bootstrap)
        sim.run(until=sim.now + 150.0)
        drops = dict(internet.drops)
        return ([(e.time, e.kind, e.detail) for e in faults.fired], drops)

    def test_same_seed_same_fault_trace(self):
        assert self._scripted_run(42) == self._scripted_run(42)

    def test_armed_log_preserves_arming_order(self, sim, internet):
        faults = FaultSchedule(sim, internet)
        e2 = faults.at(20.0, "b", "second", lambda: None)
        e1 = faults.at(10.0, "a", "first", lambda: None)
        assert faults.armed == [e2, e1]
        sim.run(until=30.0)
        assert [e.kind for e in faults.fired] == ["a", "b"]
