"""Mutation tests: every invariant class must fire on a deliberately
corrupted overlay and stay silent on a healthy one.

Each test corrupts exactly one piece of state behind the overlay's back
(no close-notify, no version bump unless stated) and asserts the auditor
flags exactly that violation kind.
"""

from __future__ import annotations

import pytest

from repro.brunet.address import ADDRESS_SPACE, BrunetAddress, ring_distance
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.linking import LinkAttempt
from repro.brunet.overlords import (
    FarConnectionOverlord,
    LeafConnectionOverlord,
    NearConnectionOverlord,
)
from repro.brunet.routing import next_hop
from repro.check import AuditConfig, Auditor, invariants
from repro.obs.spans import SpanCollector
from repro.phys.endpoints import Endpoint
from repro.phys.nat import Nat, NatSpec, _Mapping

from tests.conftest import build_overlay


def _ordered(nodes):
    return sorted((n for n in nodes if n.active), key=lambda n: int(n.addr))


def _kinds(violations):
    return {v.kind for v in violations}


@pytest.fixture
def immediate():
    """Auditor config with no persistence gating (mutations stay put, so
    promoting on first sight keeps the tests single-sweep)."""
    return AuditConfig(grace=0.0, handshake_grace=0.0)


@pytest.fixture
def overlay(sim, internet):
    return build_overlay(sim, internet, 12)[0]


def test_settled_overlay_audits_clean(sim, internet, overlay):
    auditor = Auditor(sim, overlay, internet=internet).start()
    sim.run(until=sim.now + 120.0)
    auditor.finish()
    assert auditor.ok, [v.detail for v in auditor.violations]
    assert auditor.sweeps > 5


# ---------------------------------------------------------------------------
# ring consistency
# ---------------------------------------------------------------------------

def test_ring_flags_silently_removed_neighbor(sim, overlay, immediate):
    ordered = _ordered(overlay)
    node, neighbor = ordered[0], ordered[1]
    assert node.table.get(neighbor.addr) is not None
    node.table._conns.pop(neighbor.addr)  # no close-notify, a real bug
    node.table.bump_version()
    auditor = Auditor(sim, overlay, config=immediate)
    promoted = auditor.sweep()
    assert f"ring.neighbor-missing:{node.name}:right" in {
        v.key for v in promoted}


def test_ring_flags_mislabeled_near(sim, overlay, immediate):
    ordered = _ordered(overlay)
    node, distant = ordered[0], ordered[5]
    node.table.add(Connection(distant.addr, Endpoint("9.9.9.9", 1),
                              ConnectionType.STRUCTURED_NEAR, sim.now))
    found = invariants.check_ring(overlay, sim.now)
    assert f"ring.mislabeled:{node.name}:{distant.addr.hex()}" in {
        v.key for v in found}


def test_ring_flags_structured_link_to_dead_node(sim, overlay):
    ordered = _ordered(overlay)
    node = ordered[0]
    ghost = BrunetAddress((int(node.addr) + 77777) % ADDRESS_SPACE)
    assert ghost not in {n.addr for n in overlay}
    node.table.add(Connection(ghost, Endpoint("9.9.9.8", 1),
                              ConnectionType.STRUCTURED_FAR, sim.now))
    found = invariants.check_ring(overlay, sim.now)
    assert f"ring.stale-peer:{node.name}:{ghost.hex()}" in {
        v.key for v in found}


def test_ring_skips_neighbor_with_handshake_in_flight(sim, overlay):
    """A joiner behind a hairpin-dropping NAT legally spends ~155 s
    linking its true neighbour (one dead URI's worth of retries) — far
    longer than the audit grace.  While that attempt is in flight the
    missing link is repair in progress, not a violation."""
    ordered = _ordered(overlay)
    node, neighbor = ordered[0], ordered[1]
    node.table._conns.pop(neighbor.addr)
    node.table.bump_version()
    node.linker.by_addr[neighbor.addr] = LinkAttempt(
        999998, neighbor.addr, [], ConnectionType.STRUCTURED_NEAR, sim.now,
        node.config.link_resend_interval)
    found = invariants.check_ring(overlay, sim.now)
    keys = {v.key for v in found}
    assert f"ring.neighbor-missing:{node.name}:right" not in keys
    # the neighbour's mirror finding is excused by the same attempt
    assert f"ring.neighbor-missing:{neighbor.name}:left" not in keys
    # once the attempt gives up with the link still missing, it promotes
    node.linker.by_addr.pop(neighbor.addr)
    found = invariants.check_ring(overlay, sim.now)
    assert f"ring.neighbor-missing:{node.name}:right" in {
        v.key for v in found}


def test_ring_excuses_stale_near_while_peer_repairs(sim, overlay):
    """node A keeps its *old* neighbour B NEAR-labelled while B is still
    linking toward a node that joined between them — B ranks A as its
    best-known neighbour until that handshake lands, so the stale label
    is the legal pre-join neighbourhood, not a violation."""
    ordered = _ordered(overlay)
    node, distant = ordered[0], ordered[5]
    node.table.add(Connection(distant.addr, Endpoint("9.9.9.9", 1),
                              ConnectionType.STRUCTURED_NEAR, sim.now))
    key = f"ring.mislabeled:{node.name}:{distant.addr.hex()}"
    assert key in {v.key for v in invariants.check_ring(overlay, sim.now)}
    # the labelled peer starts repairing toward its own true neighbour
    distant.linker.by_addr[ordered[6].addr] = LinkAttempt(
        999997, ordered[6].addr, [], ConnectionType.STRUCTURED_NEAR,
        sim.now, distant.config.link_resend_interval)
    assert key not in {v.key for v in invariants.check_ring(overlay, sim.now)}


def test_routing_dead_end_excused_while_ring_repairs(sim, overlay):
    """A greedy chain that bottoms out at a node whose true-neighbour
    link is mid-handshake is a legal local minimum, not non-convergence."""
    ordered = _ordered(overlay)
    node, neighbor = ordered[0], ordered[1]
    # sever both directions so the chain node->neighbor truly dead-ends
    node.table._conns.pop(neighbor.addr)
    node.table.bump_version()
    for conn in list(node.table.all()):
        if ring_distance(conn.peer_addr, neighbor.addr) < ring_distance(
                node.addr, neighbor.addr):
            node.table._conns.pop(conn.peer_addr)
    node.table.bump_version()
    key = f"routing.non-convergent:{node.name}->{neighbor.name}"
    found = invariants.check_routing(overlay, sim.now)
    if key in {v.key for v in found}:  # chain sampled and dead-ended
        node.linker.by_addr[neighbor.addr] = LinkAttempt(
            999996, neighbor.addr, [], ConnectionType.STRUCTURED_NEAR,
            sim.now, node.config.link_resend_interval)
        found = invariants.check_routing(overlay, sim.now)
        assert key not in {v.key for v in found}


def test_ring_flags_partition(sim, internet):
    island_a, _ = build_overlay(sim, internet, 5)
    island_b, _ = build_overlay(sim, internet, 5)  # separate bootstrap
    found = invariants.check_ring(island_a + island_b, sim.now)
    assert "ring.partition" in _kinds(found)


# ---------------------------------------------------------------------------
# connection symmetry
# ---------------------------------------------------------------------------

def test_symmetry_flags_one_way_connection(sim, overlay, immediate):
    ordered = _ordered(overlay)
    a, b = ordered[3], ordered[4]
    assert a.table.get(b.addr) is not None
    a.table._conns.pop(b.addr)
    a.table.bump_version()
    auditor = Auditor(sim, overlay,
                      config=AuditConfig(grace=0.0, handshake_grace=0.0,
                                         checks=("symmetry",)))
    promoted = auditor.sweep()
    assert f"symmetry.one-way:{b.name}:{a.name}" in {v.key for v in promoted}


def test_symmetry_flags_empty_label_set(sim, overlay):
    ordered = _ordered(overlay)
    node = ordered[2]
    conn = node.table.all()[0]
    conn.types = frozenset()
    found = invariants.check_symmetry(overlay, sim.now, handshake_grace=0.0)
    assert "symmetry.empty-labels" in _kinds(found)


def test_symmetry_flags_disjoint_labels(sim, overlay):
    ordered = _ordered(overlay)
    a, b = ordered[0], ordered[1]
    fwd, back = a.table.get(b.addr), b.table.get(a.addr)
    assert fwd is not None and back is not None
    fwd.types = frozenset({ConnectionType.STRUCTURED_NEAR})
    back.types = frozenset({ConnectionType.LEAF})
    found = invariants.check_symmetry(overlay, sim.now, handshake_grace=0.0)
    assert f"symmetry.label-mismatch:{a.name}:{b.name}" in {
        v.key for v in found}


def test_symmetry_skips_in_flight_handshakes(sim, overlay):
    ordered = _ordered(overlay)
    a, b = ordered[3], ordered[4]
    a.table._conns.pop(b.addr)
    a.table.bump_version()
    # an in-flight linking attempt on either side excuses the asymmetry
    a.linker.by_addr[b.addr] = LinkAttempt(
        999999, b.addr, [], ConnectionType.STRUCTURED_NEAR, sim.now,
        a.config.link_resend_interval)
    found = invariants.check_symmetry(overlay, sim.now, handshake_grace=0.0)
    assert f"symmetry.one-way:{b.name}:{a.name}" not in {
        v.key for v in found}


# ---------------------------------------------------------------------------
# routing convergence and cache coherence
# ---------------------------------------------------------------------------

def test_cache_flags_poisoned_entry(sim, overlay):
    ordered = _ordered(overlay)
    src, dest = ordered[0], ordered[6].addr
    real = next_hop(src.table, src.addr, dest)  # warm the cache
    assert src.table.next_hop_cache[dest] is real
    poison = next(c for c in src.table.all() if c is not real)
    src.table.next_hop_cache[dest] = poison  # no version bump: stale entry
    found = invariants.check_cache(overlay, sim.now)
    assert any(v.kind == "cache.incoherent" and v.node == src.name
               for v in found)
    assert f"cache.incoherent:{src.name}:{int(dest):040x}" in {
        v.key for v in found}


def test_routing_flags_metric_increase(sim, overlay, immediate):
    ordered = _ordered(overlay)
    src, owner = ordered[0], ordered[1]
    d_here = ring_distance(src.addr, owner.addr)
    worse = next(c for c in src.table.all() if c.structured
                 and ring_distance(c.peer_addr, owner.addr) >= d_here)
    # a poisoned memoized decision sends the chain *away* from the owner
    src.table.next_hop_cache[owner.addr] = worse
    auditor = Auditor(sim, overlay, config=immediate)
    promoted = auditor.sweep()
    assert any(v.kind in ("routing.metric-increase", "cache.incoherent")
               and v.node == src.name for v in promoted)
    assert "routing.metric-increase" in _kinds(promoted)


# ---------------------------------------------------------------------------
# resource leaks
# ---------------------------------------------------------------------------

def test_leak_flags_stale_far_pending(sim, overlay):
    node = _ordered(overlay)[0]
    far = next(o for o in node.overlords
               if isinstance(o, FarConnectionOverlord))
    far._pending.append(sim.now - 100.0)  # expired, never pruned
    found = invariants.check_leaks(overlay, sim.now)
    assert f"leak.far-pending:{node.name}" in {v.key for v in found}


def test_leak_flags_shortcut_pending_for_connected_peer(sim, overlay):
    ordered = _ordered(overlay)
    node, peer = ordered[0], ordered[1]
    assert node.table.get(peer.addr) is not None
    node.shortcut_overlord._pending[peer.addr] = sim.now + 50.0
    found = invariants.check_leaks(overlay, sim.now)
    assert f"leak.shortcut-pending:{node.name}:{peer.addr.hex()}" in {
        v.key for v in found}


def test_leak_flags_unarmed_shortcut_overlord(sim, overlay):
    """The demand-driven overlord's one new failure mode: state to decay
    and no tick scheduled to decay it."""
    ordered = _ordered(overlay)
    node, healthy = ordered[0], ordered[1]
    ghost = BrunetAddress((int(node.addr) + 424_242) % ADDRESS_SPACE)
    # scored behind observe()'s back: nothing armed the timer
    node.shortcut_overlord.scores[ghost] = 3.0
    healthy.shortcut_overlord.observe(ghost, 3)  # the real path arms itself
    keys = {v.key for v in invariants.check_leaks(overlay, sim.now)}
    rule = "leak.overlord-unarmed:%s:ShortcutConnectionOverlord"
    assert rule % node.name in keys
    assert rule % healthy.name not in keys
    # a cancelled timer is as bad as none
    healthy.shortcut_overlord._timer.cancel()
    keys = {v.key for v in invariants.check_leaks(overlay, sim.now)}
    assert rule % healthy.name in keys


def _unarmed(overlay, now) -> set[str]:
    return {v.key for v in invariants.check_leaks(overlay, now)
            if v.kind == "leak.overlord-unarmed"}


def test_leak_flags_unarmed_leaf_overlord(sim, overlay):
    """The leaf link vanishes behind the hooks' back: the overlord is due
    for a new attempt and nothing will ever run it."""
    node = next(n for n in _ordered(overlay)
                if n.bootstrap_uris and n.leaf_connection())
    leaf = next(o for o in node.overlords
                if isinstance(o, LeafConnectionOverlord))
    assert _unarmed(overlay, sim.now) == set()
    for conn in node.table.by_type(ConnectionType.LEAF):
        node.table._conns.pop(conn.peer_addr)
    node.table.bump_version()
    assert leaf._due() is not None and not leaf.timer_pending
    assert (f"leak.overlord-unarmed:{node.name}:LeafConnectionOverlord"
            in _unarmed(overlay, sim.now))


def test_leak_flags_unarmed_near_overlord(sim, overlay):
    """A settled node's one timer is the near overlord's re-announce:
    cancelled, the ring would never be re-stabilised from this node."""
    node = _ordered(overlay)[0]
    near = next(o for o in node.overlords
                if isinstance(o, NearConnectionOverlord))
    assert near.timer_pending
    near._timer.cancel()
    assert _unarmed(overlay, sim.now) == {
        f"leak.overlord-unarmed:{node.name}:NearConnectionOverlord"}


def test_leak_flags_unarmed_far_overlord(sim, overlay):
    """A CTM in flight that nothing is armed to expire is what used to
    become ``leak.far-pending`` two intervals later; a far link lost
    behind the hooks' back is a deficit nobody will top up."""
    def far_of(n):
        return next(o for o in n.overlords
                    if isinstance(o, FarConnectionOverlord))

    node, other = [n for n in _ordered(overlay)
                   if far_of(n)._due() is None][:2]
    far = far_of(node)
    assert not far.timer_pending and not far_of(other).timer_pending
    far._pending.append(sim.now + 30.0)
    for conn in other.table.by_type(ConnectionType.STRUCTURED_FAR):
        other.table._conns.pop(conn.peer_addr)
    other.table.bump_version()
    assert _unarmed(overlay, sim.now) >= {
        f"leak.overlord-unarmed:{name}:FarConnectionOverlord"
        for name in (node.name, other.name)}


def test_failed_shortcut_slot_is_pruned_with_no_traffic_behind_it(
        sim, internet, overlay):
    """One burst, one attempt toward an address nobody owns, then
    silence: the ``_pending`` slot is never popped by a connection, so
    only the overlord's own tick can prune it — and with no traffic the
    slot is the only thing keeping that tick armed.  The auditor (whose
    ``leak.shortcut-pending-expired`` rule allows 3 ticks) stays clean
    across the expiry, and the timer is released once the slot is gone."""
    node = _ordered(overlay)[0]
    overlord = node.shortcut_overlord
    ghost = BrunetAddress((int(node.addr) + 424_242) % ADDRESS_SPACE)
    auditor = Auditor(sim, overlay, internet=internet).start()
    node.shortcut_overlord.observe(ghost, 40)
    sim.run(until=sim.now + 5.0)
    assert ghost in overlord._pending
    expiry = overlord._pending[ghost]
    sim.run(until=expiry - 1.0)
    assert not overlord.scores          # drained and collected long ago
    assert ghost in overlord._pending and overlord.timer_pending
    sim.run(until=expiry + 3.0 * node.config.shortcut_tick)
    assert ghost not in overlord._pending
    assert not overlord.timer_pending
    auditor.finish()
    assert auditor.ok, [v.detail for v in auditor.violations]
    # the rule itself: the same slot, expired and with nothing armed
    overlord._pending[ghost] = sim.now - 10.0
    keys = {v.key for v in invariants.check_leaks(overlay, sim.now)}
    assert (f"leak.shortcut-pending-expired:{node.name}:{ghost.hex()}"
            in keys)
    assert (f"leak.overlord-unarmed:{node.name}:ShortcutConnectionOverlord"
            in keys)


def test_leak_flags_linker_state_after_stop(sim, overlay):
    ordered = _ordered(overlay)
    node = ordered[-1]
    node.stop()
    node.linker.by_token[1] = LinkAttempt(
        1, ordered[0].addr, [], ConnectionType.STRUCTURED_NEAR, sim.now,
        node.config.link_resend_interval)
    found = invariants.check_leaks(overlay, sim.now)
    assert f"leak.linker-after-stop:{node.name}" in {v.key for v in found}


def test_leak_flags_stuck_link_attempt(sim, overlay):
    node = _ordered(overlay)[0]
    stuck = LinkAttempt(424242, None, [], ConnectionType.STRUCTURED_FAR,
                        sim.now - 10_000.0, node.config.link_resend_interval)
    node.linker.by_token[stuck.token] = stuck
    found = invariants.check_leaks(overlay, sim.now)
    assert f"leak.link-attempt:{node.name}:424242" in {v.key for v in found}


def test_leak_flags_nat_mirror_desync(sim, internet, overlay):
    nat = Nat("corrupt-nat", "8.8.1.1", "10.9.9.", NatSpec.cone())
    internet.register_nat(nat)
    orphan = _Mapping(inner=Endpoint("10.9.9.5", 500), public_port=30000,
                      key=("udp", Endpoint("10.9.9.5", 500)))
    nat._by_port[30000] = orphan  # _by_key side missing: mirrors disagree
    found = invariants.check_leaks(overlay, sim.now, internet=internet)
    assert "leak.nat-mapping:corrupt-nat" in {v.key for v in found}


def test_span_leak_flags_open_non_root_only():
    spans = SpanCollector(enabled=True, sample={"ip": 1})
    tid = spans.maybe_trace("ip")
    root = spans.start("ip.packet", "n0", 10.0, tid)
    spans.start("route.fwd", "n1", 11.0, tid, parent=root)
    found = invariants.check_spans(spans, now=10_000.0, span_grace=900.0)
    assert len(found) == 1
    assert found[0].kind == "span.dangling"
    assert "route.fwd" in found[0].detail  # the open root is exempt


# ---------------------------------------------------------------------------
# persistence gating
# ---------------------------------------------------------------------------

def _break_ring(overlay):
    ordered = _ordered(overlay)
    node, neighbor = ordered[0], ordered[1]
    conn = node.table._conns.pop(neighbor.addr)
    node.table.bump_version()
    return node, neighbor, conn


def test_gating_waits_out_grace_before_promoting(sim, overlay):
    node, neighbor, _conn = _break_ring(overlay)
    key = f"ring.neighbor-missing:{node.name}:right"
    auditor = Auditor(sim, overlay,
                      config=AuditConfig(grace=300.0, checks=("ring",)))
    assert auditor.sweep() == []          # first sight: pending only
    assert key in auditor._pending
    sim.run(until=sim.now + 400.0)
    # self-repair is live, so the neighbor link may have been re-formed by
    # the overlords; force the breakage to persist for the gating check
    # (and clear any in-flight re-link attempt, which would excuse it)
    node.table._conns.pop(neighbor.addr, None)
    node.table.bump_version()
    node.linker.by_addr.pop(neighbor.addr, None)
    neighbor.linker.by_addr.pop(node.addr, None)
    promoted = auditor.sweep()
    assert key in {v.key for v in promoted}
    assert not auditor.ok


def test_gating_drops_healed_findings(sim, overlay):
    node, neighbor, conn = _break_ring(overlay)
    key = f"ring.neighbor-missing:{node.name}:right"
    auditor = Auditor(sim, overlay,
                      config=AuditConfig(grace=50.0, checks=("ring",)))
    auditor.sweep()
    assert key in auditor._pending
    node.table._conns[neighbor.addr] = conn   # heal it back
    node.table.bump_version()
    sim.run(until=sim.now + 100.0)
    auditor.sweep()
    assert auditor.ok
    assert key not in auditor._pending


def test_violations_deduplicate_across_sweeps(sim, overlay, immediate):
    node = _ordered(overlay)[0]
    far = next(o for o in node.overlords
               if isinstance(o, FarConnectionOverlord))
    far._pending.append(sim.now - 100.0)
    auditor = Auditor(sim, overlay, config=immediate)
    first = auditor.sweep()
    again = auditor.sweep()
    key = f"leak.far-pending:{node.name}"
    assert key in {v.key for v in first}
    assert key not in {v.key for v in again}
    assert len([v for v in auditor.violations if v.key == key]) == 1
