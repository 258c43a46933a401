"""Overlord behaviours: leaf maintenance, shortcut score queue, eviction."""

import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.connection import ConnectionType
from repro.brunet.overlords import ShortcutConnectionOverlord
from repro.phys import Internet, Site
from repro.sim import Simulator
from tests.conftest import build_overlay


class TestScoreQueue:
    """The §IV-E recurrence s(i+1) = max(s(i) + a(i) − c, 0)."""

    def setup_method(self):
        self.sim = Simulator(seed=4)
        net = Internet(self.sim)
        site = Site(net, "pub")
        host = site.add_host("h")
        cfg = BrunetConfig()
        self.node = BrunetNode(self.sim, host,
                               random_address(self.sim.rng.stream("t")), cfg)
        self.node.start([])
        self.overlord = self.node.shortcut_overlord
        self.dest = random_address(self.sim.rng.stream("d"))

    def test_score_accumulates_above_service_rate(self):
        cfg = self.node.config
        for _ in range(10):
            self.overlord.observe(self.dest, 1)
            self.overlord.tick()
        expected = 10 * (1 - cfg.shortcut_service_rate * cfg.shortcut_tick)
        assert self.overlord.score_of(self.dest) == pytest.approx(expected)

    def test_score_drains_when_idle(self):
        self.overlord.observe(self.dest, 5)
        self.overlord.tick()
        for _ in range(30):
            self.overlord.tick()
        assert self.overlord.score_of(self.dest) == 0.0

    def test_score_never_negative(self):
        self.overlord.observe(self.dest, 1)
        for _ in range(10):
            self.overlord.tick()
        assert self.overlord.score_of(self.dest) >= 0.0

    def test_threshold_triggers_ctm(self):
        before = self.node.stats["ctm_sent"]
        self.overlord.observe(self.dest, 100)
        self.overlord.tick()
        assert self.node.stats["ctm_sent"] == before + 1

    def test_no_duplicate_ctm_while_pending(self):
        self.overlord.observe(self.dest, 100)
        self.overlord.tick()
        sent = self.node.stats["ctm_sent"]
        self.overlord.observe(self.dest, 100)
        self.overlord.tick()
        assert self.node.stats["ctm_sent"] == sent

    def test_disabled_overlord_ignores_traffic(self):
        self.node.config.shortcuts_enabled = False
        self.overlord.observe(self.dest, 1000)
        self.overlord.tick()
        assert self.overlord.score_of(self.dest) == 0.0
        self.node.config.shortcuts_enabled = True

    def test_own_address_never_scored(self):
        self.overlord.observe(self.node.addr, 100)
        self.overlord.tick()
        assert self.overlord.score_of(self.node.addr) == 0.0


class TestShortcutsEndToEnd:
    def test_traffic_creates_shortcut(self, sim, internet):
        nodes, _ = build_overlay(sim, internet, 10)
        a, b = nodes[0], nodes[-1]
        if a.table.get(b.addr) is not None:
            pytest.skip("already adjacent in this topology")

        def drive():
            a.inspect_traffic(b.addr, 1)
        for i in range(60):
            sim.schedule(i * 1.0, drive)
        sim.run(until=sim.now + 90)
        conn = a.table.get(b.addr)
        assert conn is not None
        assert ConnectionType.SHORTCUT in conn.types

    def test_cap_evicts_lowest_score(self, sim, internet):
        nodes, _ = build_overlay(sim, internet, 18)
        a = nodes[0]
        a.config.shortcut_max = 2
        others = [n for n in nodes[1:] if a.table.get(n.addr) is None]
        if len(others) < 3:
            pytest.skip("topology too dense for this seed")
        targets = others[:3]
        # drive traffic to 3 destinations with increasing intensity
        for weight, target in enumerate(targets, start=1):
            for i in range(80):
                sim.schedule(i * 1.0, a.inspect_traffic, target.addr,
                             weight * 2)
        sim.run(until=sim.now + 150)
        shortcuts = a.table.by_type(ConnectionType.SHORTCUT)
        assert len(shortcuts) <= 2
        a.config.shortcut_max = 8


class TestLeafOverlord:
    def test_leaf_reestablished_after_bootstrap_loss(self, sim, internet):
        nodes, bootstrap = build_overlay(sim, internet, 6)
        site = Site(internet, "extra")
        host = site.add_host("x")
        node = BrunetNode(sim, host, random_address(sim.rng.stream("x")),
                          BrunetConfig(), name="x")
        # two seeds: the first will die
        from repro.brunet.uri import Uri
        seeds = [Uri.udp(nodes[0].host.ip, nodes[0].port),
                 Uri.udp(nodes[1].host.ip, nodes[1].port)]
        node.start(seeds)
        sim.run(until=sim.now + 30)
        leaf = node.leaf_connection()
        assert leaf is not None
        # kill the leaf target; the overlord should find another seed
        victim = nodes[0] if leaf.peer_addr == nodes[0].addr else nodes[1]
        victim.stop()
        sim.run(until=sim.now + 240)
        leaf = node.leaf_connection()
        assert leaf is not None
        assert leaf.peer_addr != victim.addr


class TestFarOverlord:
    def test_far_success_releases_pending_slot(self):
        """Regression: a far connection that actually lands must free its
        ``_pending`` slot immediately — it used to count against ``need``
        until the 30 s TTL, so nodes sat below ``far_count`` after churn."""
        from repro.brunet.connection import Connection
        from repro.brunet.overlords import FarConnectionOverlord
        from repro.phys.endpoints import Endpoint
        sim = Simulator(seed=7)
        net = Internet(sim)
        site = Site(net, "pub")
        host = site.add_host("h")
        cfg = BrunetConfig(far_count=1)
        node = BrunetNode(sim, host, random_address(sim.rng.stream("t")), cfg)
        node.start([])
        far = next(o for o in node.overlords
                   if isinstance(o, FarConnectionOverlord))
        # fake ring membership so the overlord is willing to work
        node.table.add(Connection(node.addr.offset(12345),
                                  Endpoint("150.1.0.9", 14001),
                                  ConnectionType.STRUCTURED_NEAR, sim.now))
        far.tick()
        assert len(far._pending) == 1
        sent = node.stats["ctm_sent"]
        # the CTM succeeds: a structured-far connection is established
        far_peer = node.addr.offset(999999)
        node.table.add(Connection(far_peer, Endpoint("150.1.0.10", 14001),
                                  ConnectionType.STRUCTURED_FAR, sim.now))
        assert not far._pending
        # that link dies; the very next tick must start the repair (no
        # 30 s dead time from the stale pending entry)
        node.table.remove(far_peer)
        far.tick()
        assert node.stats["ctm_sent"] == sent + 1


class TestRestartInPlace:
    """``FaultSchedule.restart_node`` stops and starts the *same* node
    object; every ``start`` builds fresh overlords."""

    def test_hooks_do_not_accumulate_across_restarts(self, sim, internet):
        nodes, bootstrap = build_overlay(sim, internet, 4)
        node = nodes[-1]
        hooks = (len(node.on_connection), len(node.on_disconnection))
        for _ in range(4):
            node.stop()
            sim.run(until=sim.now + 5.0)
            node.start(list(bootstrap))
            sim.run(until=sim.now + 30.0)
        assert node.in_ring
        assert (len(node.on_connection),
                len(node.on_disconnection)) == hooks

    def test_stopped_overlord_ignores_later_connections(self, sim, internet):
        from repro.brunet.connection import Connection
        from repro.phys.endpoints import Endpoint
        nodes, bootstrap = build_overlay(sim, internet, 4)
        node = nodes[-1]
        dead = node.shortcut_overlord
        peer = node.addr.offset(4242)
        node.stop()
        dead._pending[peer] = sim.now + 300.0
        node.start(list(bootstrap))
        node.table.add(Connection(peer, Endpoint("150.1.0.99", 14001),
                                  ConnectionType.SHORTCUT, sim.now))
        assert peer in dead._pending, \
            "a stopped overlord's callback still ran on a new connection"
        assert node.shortcut_overlord is not dead
