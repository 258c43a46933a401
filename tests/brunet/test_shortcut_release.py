"""Shortcut teardown must strip the SHORTCUT label only — never close a
connection that still carries ring (NEAR/FAR) roles.

Regression: the eviction path in ``_maybe_connect`` used to call
``drop_connection`` on the victim unconditionally, so evicting a shortcut
whose peer was *also* the ring neighbor silently cut the ring.
"""

from __future__ import annotations

import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import ConnectionType
from tests.conftest import build_overlay


def _absent_addr(node, salt: int = 1) -> BrunetAddress:
    """A destination address the node holds no connection to."""
    addr = BrunetAddress((int(node.addr) + salt * 7_777_777) % (1 << 160))
    while node.table.get(addr) is not None or addr == node.addr:
        addr = BrunetAddress((int(addr) + 7_777_777) % (1 << 160))
    return addr


@pytest.fixture
def tight_overlay(sim, internet):
    """8 nodes with room for exactly one shortcut per node."""
    nodes, _ = build_overlay(sim, internet, 8,
                             config=BrunetConfig(shortcut_max=1))
    return sorted(nodes, key=lambda n: int(n.addr))


def test_eviction_keeps_ring_labels(sim, tight_overlay):
    node, neighbor = tight_overlay[0], tight_overlay[1]
    conn = node.table.get(neighbor.addr)
    assert conn is not None
    assert ConnectionType.STRUCTURED_NEAR in conn.types
    # traffic made the ring neighbor a shortcut too: one physical link,
    # two roles
    conn.add_type(ConnectionType.SHORTCUT)

    overlord = node.shortcut_overlord
    hot = _absent_addr(node)
    overlord.scores[hot] = 100.0
    overlord._maybe_connect(hot, 100.0)

    survivor = node.table.get(neighbor.addr)
    assert survivor is not None, \
        "evicting the shortcut must not close the ring link"
    assert ConnectionType.STRUCTURED_NEAR in survivor.types
    assert ConnectionType.SHORTCUT not in survivor.types


def test_eviction_closes_pure_shortcut(sim, tight_overlay):
    node = tight_overlay[0]
    victim = next((n for n in tight_overlay[2:]
                   if node.table.get(n.addr) is None), None)
    if victim is None:  # small ring: borrow a peer and strip its roles
        victim = tight_overlay[4]
        node.drop_connection(node.table.get(victim.addr),
                             reason="test-setup", notify=True)
        sim.run(until=sim.now + 1.0)
    node.connect_to(victim.addr, ConnectionType.SHORTCUT)
    sim.run(until=sim.now + 30.0)
    conn = node.table.get(victim.addr)
    assert conn is not None and ConnectionType.SHORTCUT in conn.types
    conn.types = conn.types & {ConnectionType.SHORTCUT}

    overlord = node.shortcut_overlord
    hot = _absent_addr(node)
    overlord.scores[hot] = 100.0
    overlord._maybe_connect(hot, 100.0)
    assert node.table.get(victim.addr) is None


def test_drop_idle_strips_only_shortcut_label(sim, tight_overlay):
    node, neighbor = tight_overlay[0], tight_overlay[1]
    node.config.shortcut_idle_drop = 60.0
    conn = node.table.get(neighbor.addr)
    conn.add_type(ConnectionType.SHORTCUT)
    overlord = node.shortcut_overlord
    overlord._last_nonzero[neighbor.addr] = sim.now - 1000.0
    overlord._drop_idle()
    survivor = node.table.get(neighbor.addr)
    assert survivor is not None
    assert ConnectionType.SHORTCUT not in survivor.types
    assert ConnectionType.STRUCTURED_NEAR in survivor.types


def test_expired_pending_slot_is_pruned_by_tick(sim, tight_overlay):
    node = tight_overlay[0]
    overlord = node.shortcut_overlord
    ghost = BrunetAddress((int(node.addr) + 999_999) % (1 << 160))
    overlord._pending[ghost] = sim.now - 1.0  # failed attempt, peer cold
    overlord.tick()
    assert ghost not in overlord._pending


def test_eviction_victim_tie_breaks_by_address(sim, tight_overlay):
    """Equal-score victims: the lower address goes, independent of the
    order the shortcuts were added."""
    node = tight_overlay[0]
    node.config.shortcut_max = 2
    # turn two non-neighbor links into pure shortcuts (no sim steps run
    # between here and the eviction, so no overlord re-labels them)
    pair = [c for c in node.table.all()
            if c.peer_addr not in (tight_overlay[1].addr,
                                   tight_overlay[-1].addr)][:2]
    assert len(pair) == 2
    for conn in pair:
        conn.types = frozenset({ConnectionType.SHORTCUT})
    node.table.bump_version()
    lo, hi = sorted((c.peer_addr for c in pair), key=int)

    overlord = node.shortcut_overlord
    hot = _absent_addr(node)
    overlord.scores[hot] = 100.0  # both victims score 0.0: a tie
    overlord._maybe_connect(hot, 100.0)
    assert node.table.get(lo) is None, "tie must evict the lower address"
    assert node.table.get(hi) is not None
