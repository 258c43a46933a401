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
        expected = 10 * (1 - ShortcutConnectionOverlord.SERVICE_RATE
                         * cfg.shortcut_tick)
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
            a.shortcut_overlord.observe(b.addr, 1)
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
                sim.schedule(i * 1.0, a.shortcut_overlord.observe,
                             target.addr, weight * 2)
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


def _overlord(node, cls):
    return next(o for o in node.overlords if type(o) is cls)


class TestDeadlineDriven:
    """Leaf, near and far hold a timer only for an instant ``_due()``
    names; events — not a poll — give them work."""

    def test_settled_ring_holds_one_overlord_timer_per_node(self, sim,
                                                            internet):
        from repro.brunet.overlords import (FarConnectionOverlord,
                                            LeafConnectionOverlord,
                                            NearConnectionOverlord)
        nodes, _ = build_overlay(sim, internet, 8)
        sim.run(until=sim.now + 120.0)
        for node in nodes:
            assert not _overlord(node, LeafConnectionOverlord).timer_pending
            assert not _overlord(node, FarConnectionOverlord).timer_pending
            assert not node.shortcut_overlord.timer_pending
            near = _overlord(node, NearConnectionOverlord)
            assert near.timer_pending
            # ... due at its next re-announce, one grid step at most past it
            slack = near._armed_at - near._last_announce - near._wait()
            assert 0.0 <= slack + 1e-9 < node.config.overlord_interval

    def test_losing_a_far_peer_rearms_the_far_overlord(self, sim, internet):
        from repro.brunet.overlords import FarConnectionOverlord
        nodes, _ = build_overlay(sim, internet, 8)
        sim.run(until=sim.now + 60.0)
        node = nodes[3]
        far = _overlord(node, FarConnectionOverlord)
        assert not far.timer_pending
        victim = node.table.by_type(ConnectionType.STRUCTURED_FAR)[0]
        sent = far._m_ctms.value
        node.table.remove(victim.peer_addr)
        assert far.timer_pending
        assert far._armed_at - sim.now <= node.config.overlord_interval
        sim.run(until=far._armed_at)
        assert far._m_ctms.value == sent + 1

    def test_relabel_without_a_connection_event_wakes_near(self, sim,
                                                          internet):
        """Dropping the SHORTCUT label off a link that has other roles
        fires no hook, but moves the table version the near overlord's
        relabel pass keys on: it must run at the next grid instant."""
        from repro.brunet.overlords import NearConnectionOverlord
        nodes, _ = build_overlay(sim, internet, 8)
        sim.run(until=sim.now + 60.0)
        node = nodes[2]
        near = _overlord(node, NearConnectionOverlord)
        sim.run(until=near._armed_at)       # just re-announced: ≥ 30 s off
        assert near._armed_at - sim.now > 2 * node.config.overlord_interval
        conn = node.table.by_type(ConnectionType.STRUCTURED_FAR)[0]
        conn.add_type(ConnectionType.SHORTCUT)
        node.shortcut_overlord._release_shortcut(conn, "shortcut-idle")
        assert near._relabeled_version != node.table.version
        assert near._armed_at - sim.now <= node.config.overlord_interval
        sim.run(until=near._armed_at)
        assert near._relabeled_version == node.table.version

    def test_re_announce_deadline_is_never_late(self):
        """``tick`` tests ``now - last >= wait``; the deadline ``_due()``
        states must not lie above any instant that passes that test —
        also where ``last + wait`` does (small ``last``: the subtraction
        rounds) — and may lie below one that fails it only by ulps.  For
        every wait the back-off can reach."""
        import random
        from repro.brunet.overlords import NearConnectionOverlord
        sim = Simulator(seed=9)
        host = Site(Internet(sim), "solo").add_host("h")
        node = BrunetNode(sim, host, random_address(sim.rng.stream("x")),
                          BrunetConfig())
        node.start([])
        near = _overlord(node, NearConnectionOverlord)
        from repro.brunet.connection import Connection
        from repro.phys.endpoints import Endpoint
        node.table.add(Connection(node.addr.offset(99), Endpoint("9.9.9.9", 1),
                                  ConnectionType.STRUCTURED_NEAR, sim.now))
        near.tick()                       # relabel pass: only the wait left
        near._announced_near = near._near     # the neighbours announced
        rng = random.Random(11)
        waits = []
        wait = near.REANNOUNCE_INTERVAL
        while wait <= near.REANNOUNCE_MAX:
            waits.append(wait)
            wait *= 2
        assert waits == [30.0, 60.0, 120.0, 240.0]
        for wait in waits:
            near._backoff = wait
            assert near._wait() == wait
            for _ in range(1000):
                last = rng.choice((rng.uniform(0.0, wait + 10.0),
                                   rng.uniform(0.0, 5000.0)))
                near._last_announce = last
                due = near._due()
                step = rng.choice((5.0, 0.5, 0.3, 1.0))
                t = last
                for _ in range(int(wait / step) + 3):
                    t += step
                    if t - last >= wait:
                        assert t >= due
                    elif t >= due:
                        assert wait - (t - last) < 1e-12


class TestRepairAnnounce:
    def test_rate_limited_repair_announce_is_delayed_not_dropped(self):
        """Red-first: a near link lost 0.5 s after an announce asks for a
        repair announce the 1 s rate limit refuses.  It used to be
        dropped, leaving the node to its next periodic re-announce; it is
        owed now, and runs on the first grid instant ``MIN_GAP`` after
        the last announce."""
        from repro.brunet.overlords import NearConnectionOverlord
        sim = Simulator(seed=3)
        nodes, _ = build_overlay(sim, Internet(sim), 8)
        node = nodes[4]
        near = _overlord(node, NearConnectionOverlord)
        while near._last_announce != sim.now:
            sim.run(until=near._armed_at)       # to the next re-announce
        sim.run(until=sim.now + 0.5)
        sent = near._m_announces.value
        node.drop_connection(node.table.by_type(
            ConnectionType.STRUCTURED_NEAR)[0], reason="test")
        sim.run(until=sim.now + node.config.overlord_interval)
        assert near._m_announces.value == sent + 1
        assert not near._owed and near._timer is not None

    def test_rate_limited_join_announce_is_owed_too(self):
        """A leaf link landing 0.5 s after the join announce asks for one
        more the rate limit refuses: it runs on the first grid instant a
        second after the last, not ``ANNOUNCE_RETRY`` later — even with
        no earlier tick left armed to pick it up."""
        from repro.brunet.connection import Connection
        from repro.brunet.overlords import NearConnectionOverlord
        from repro.phys.endpoints import Endpoint
        sim = Simulator(seed=5)
        host = Site(Internet(sim), "solo").add_host("h")
        node = BrunetNode(sim, host, random_address(sim.rng.stream("x")),
                          BrunetConfig())
        node.start([])
        near = _overlord(node, NearConnectionOverlord)

        def leaf(i: int) -> Connection:
            return Connection(node.addr.offset(1000 + i),
                              Endpoint(f"150.9.9.{i}", 4000),
                              ConnectionType.LEAF, sim.now)

        sim.run(until=12.0)                     # grid: 10, 15, 20, 25
        for i, at in enumerate((15.5, 16.0, 21.0), start=1):
            node.table.add(leaf(i))             # join announces at 12, 15.5
            sim.run(until=at)
            node.table.remove(leaf(i).peer_addr)
        assert near._m_announces.value == 3
        assert near._last_announce == 20.0


class TestStrandedNode:
    """Red-first: every seed died and ``bootstrap_uris`` is empty, so the
    leaf overlord has nothing it could ever do — it must hold no timer,
    and ``rebootstrap`` must be what gets it going again."""

    def _stranded(self, sim, internet):
        from repro.brunet.overlords import LeafConnectionOverlord
        nodes, bootstrap = build_overlay(sim, internet, 3)
        host = Site(internet, "extra").add_host("x")
        node = BrunetNode(sim, host, random_address(sim.rng.stream("x")),
                          BrunetConfig(), name="x")
        node.start([])
        sim.run(until=sim.now + 20.0)
        assert node.leaf_connection() is None and not node.in_ring
        return node, _overlord(node, LeafConnectionOverlord), bootstrap

    def test_no_leaf_timer_and_rebootstrap_links_in_one_handshake(
            self, sim, internet):
        node, leaf, bootstrap = self._stranded(sim, internet)
        assert leaf._timer is None and not leaf.timer_pending
        assert node.rebootstrap(list(bootstrap)) == len(bootstrap)
        # well inside one grid interval: the kick did not wait for it
        sim.run(until=sim.now + 1.0)
        assert node.leaf_connection() is not None
        sim.run(until=sim.now + 30.0)
        assert node.in_ring
        assert not leaf.timer_pending

    def test_rebootstrap_after_stop_schedules_nothing(self, sim, internet):
        node, leaf, bootstrap = self._stranded(sim, internet)
        node.stop()
        pending = sim.pending()
        assert node.rebootstrap(list(bootstrap)) == len(bootstrap)
        assert sim.pending() == pending
        assert leaf._timer is None

    def test_stop_right_after_rebootstrap_leaves_no_tick_queued(self):
        """The kick used to be a bare ``schedule(0.0, tick)`` nobody held
        a handle to: it outlived ``stop()`` and only ``_stopped`` kept it
        from linking on behalf of a dead node."""
        from repro.brunet.uri import Uri
        sim = Simulator(seed=5)
        host = Site(Internet(sim), "solo").add_host("h")
        node = BrunetNode(sim, host, random_address(sim.rng.stream("x")),
                          BrunetConfig())
        node.start([])
        sim.run(until=20.0)
        node.rebootstrap([Uri.udp("150.9.9.9", 4000)])
        node.stop()
        assert not any("Overlord" in repr(ev.fn) for ev in sim.iter_pending())
