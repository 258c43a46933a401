"""The near overlord's settled re-announce backs off (Trickle-style).

Each announce that finds the node's ring neighbours as the previous one
left them doubles the in-ring wait, from ``REANNOUNCE_INTERVAL`` (30 s) up
to ``REANNOUNCE_MAX`` (240 s); a neighbour set that differs from the
announced one — or a lost near link — waits the base interval again.  Join
announces and the immediate repair announce are unchanged.
"""

from __future__ import annotations

import pytest

from repro.brunet import BrunetConfig
from repro.brunet.connection import ConnectionType
from repro.brunet.node import BrunetNode
from repro.brunet.overlords import NearConnectionOverlord
from repro.brunet.uri import Uri
from repro.check import Auditor, invariants
from repro.experiments.scaling_10k import _wire, build_warm_overlay
from repro.phys import Site
from repro.sim import Simulator

FAR = ConnectionType.STRUCTURED_FAR
BASE = NearConnectionOverlord.REANNOUNCE_INTERVAL
STEP = BrunetConfig().overlord_interval


def _near(node: BrunetNode) -> NearConnectionOverlord:
    return next(o for o in node.overlords
                if type(o) is NearConnectionOverlord)


@pytest.fixture
def announces(monkeypatch):
    """node name -> the instants it announced at."""
    log: dict[str, list[float]] = {}
    real = BrunetNode.announce

    def announce(node):
        log.setdefault(node.name, []).append(node.sim.now)
        real(node)

    monkeypatch.setattr(BrunetNode, "announce", announce)
    return log


def _warm_ring(n: int, seed: int = 5, until: float = 0.0):
    sim = Simulator(seed=seed, trace=False)
    internet, nodes = build_warm_overlay(sim, n, BrunetConfig())
    sim.run(until=until)
    return sim, internet, nodes


def test_warm_ring_announces_on_the_doubling_schedule(announces):
    sim, _, nodes = _warm_ring(16, until=1000.0)
    assert {name: times[:6] for name, times in announces.items()} == {
        node.name: [0.0, 30.0, 90.0, 210.0, 450.0, 690.0] for node in nodes}
    # ... and every 240 s after that
    assert all(times[6:] == [930.0] for times in announces.values())
    assert all(_near(node)._wait() == NearConnectionOverlord.REANNOUNCE_MAX
               for node in nodes)


def test_large_warm_ring_sends_under_a_third_of_the_announces(announces):
    """200 nodes, 480 s: at most 5 announces per node (at 0, 30, 90, 210
    and 450 s); re-announcing every 30 s, each would send 17."""
    sim, _, nodes = _warm_ring(200, until=480.0)
    assert max(len(times) for times in announces.values()) <= 5
    assert len(announces) == len(nodes)


def test_dropping_a_near_link_resets_the_wait(announces):
    """Off the tick grid, so the repair announce runs before any relabel
    pass has seen the loss; the peer links again 0.08 s later, and the
    neighbours look exactly as they did at the last announce."""
    sim, _, nodes = _warm_ring(16, until=500.5)
    node = nodes[7]
    near = _near(node)
    assert near._wait() == NearConnectionOverlord.REANNOUNCE_MAX
    before = len(announces[node.name])
    right = node.table.get(nodes[8].addr)
    node.drop_connection(right, reason="test", notify=True)
    sim.run(until=600.0)
    # the repair announce at once, then the base wait (to the grid) and
    # its double — where without the drop the next announce was due at
    # 690 s, and at 745 s had the loss not reset the wait
    assert announces[node.name][before:] == [500.5, 535.0, 595.0]
    assert node.table.get(nodes[8].addr) is not None
    assert near._wait() == 4 * BASE


def test_hole_settles_within_one_base_interval(announces, monkeypatch):
    """X joins between A and B while the ring is backed off; its join
    announce reaches A but the fan-out toward B is lost, so X is linked
    only to A.  A keeps its link to B (it also carries FAR), so B sees no
    disconnection and stays on its long wait: only X's own re-announce can
    close the hole, and its neighbours changed, so it comes one base
    interval after the join.  A's neighbours changed with no disconnection
    either: A too re-announces on the base wait, not its long one."""
    sim, internet, nodes = _warm_ring(16)
    a, b = nodes[3], nodes[4]
    _wire(a, b, FAR, sim.now)
    sim.run(until=500.0)
    assert _near(a)._wait() == NearConnectionOverlord.REANNOUNCE_MAX
    assert _near(b)._wait() == NearConnectionOverlord.REANNOUNCE_MAX
    a_announces = len(announces[a.name])
    host = Site(internet, "late").add_host("x")
    x = BrunetNode(sim, host, a.addr.offset(1), BrunetConfig(), name="x")
    lost = []
    real_fanout = BrunetNode._ctm_fanout

    def fanout(node, pkt, msg):
        if msg.initiator_addr == x.addr and not lost:
            lost.append(node.name)
            return
        real_fanout(node, pkt, msg)

    monkeypatch.setattr(BrunetNode, "_ctm_fanout", fanout)
    leaf = nodes[10]
    x.start([Uri.udp(leaf.host.ip, leaf.port)])
    sim.run(until=sim.now + 3.0)
    joined = announces["x"][0]
    assert lost == [a.name]
    assert x.table.get(a.addr) is not None
    assert x.table.get(b.addr) is None
    assert FAR in a.table.get(b.addr).types
    b_announces = len(announces[b.name])
    sim.run(until=joined + BASE + STEP + 2.0)
    assert x.table.get(b.addr) is not None
    assert b.table.get(x.addr) is not None
    assert len(announces["x"]) == 2
    assert len(announces[b.name]) == b_announces      # B never woke
    # A's last announce (450 s) is more than a base wait ago: it
    # re-announces at its first tick after the change, then a base later
    assert announces[a.name][a_announces:] == [505.0, 535.0]
    assert joined < 505.0


def test_unarmed_audit_still_covers_the_backed_off_near_overlord():
    sim, internet, nodes = _warm_ring(16)
    auditor = Auditor(sim, nodes, internet=internet).start()
    sim.run(until=700.0)
    auditor.finish()
    assert auditor.ok, [v.detail for v in auditor.violations]
    node = nodes[0]
    near = _near(node)
    assert near._wait() == NearConnectionOverlord.REANNOUNCE_MAX
    assert near.timer_pending
    near._timer.cancel()
    keys = {v.key for v in invariants.check_leaks(nodes, sim.now)
            if v.kind == "leak.overlord-unarmed"}
    assert keys == {
        f"leak.overlord-unarmed:{node.name}:NearConnectionOverlord"}
