"""Ring arithmetic at the 0 / 2^160 seam: the ring neighbours and the
routing ``_metric`` must treat the address space as circular."""

from __future__ import annotations

import pytest

from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.routing import _metric, _next_hop_scan
from repro.brunet.table import ConnectionTable
from repro.phys.endpoints import Endpoint

TOP = ADDRESS_SPACE


def _table(me, peers):
    table = ConnectionTable(BrunetAddress(me))
    for i, p in enumerate(peers):
        table.add(Connection(BrunetAddress(p), Endpoint("1.1.1.1", i + 1),
                             ConnectionType.STRUCTURED_NEAR, 0.0))
    return table


# ---------------------------------------------------------------------------
# ring neighbours
# ---------------------------------------------------------------------------

def test_directional_neighbors_skip_a_link_to_my_own_address():
    table = _table(TOP - 2, [TOP - 2, 3])
    assert int(table.right_neighbor().peer_addr) == 3
    assert int(table.left_neighbor().peer_addr) == 3


def test_directional_neighbors_straddle_zero():
    table = _table(TOP - 5, [TOP - 100, 3])
    # clockwise from 2^160-5 the first peer is 3 (through zero)
    assert int(table.right_neighbor().peer_addr) == 3
    assert int(table.left_neighbor().peer_addr) == TOP - 100


# ---------------------------------------------------------------------------
# _metric with approach sides
# ---------------------------------------------------------------------------

def test_metric_ring_distance_across_seam():
    assert _metric(BrunetAddress(TOP - 10), BrunetAddress(5), None) == 15
    assert _metric(BrunetAddress(20), BrunetAddress(TOP - 10), None) == 30


def test_metric_approach_sides_across_seam():
    addr, dest = BrunetAddress(TOP - 10), BrunetAddress(5)
    # "left" converges clockwise toward dest: distance addr→dest = 15
    assert _metric(addr, dest, "left") == 15
    # "right" stays clockwise *of* dest: distance dest→addr wraps long way
    assert _metric(addr, dest, "right") == TOP - 15

    addr2 = BrunetAddress(20)
    assert _metric(addr2, dest, "right") == 15
    assert _metric(addr2, dest, "left") == TOP - 15


@pytest.mark.parametrize("approach,expected", [
    ("left", TOP - 20),   # approach from the counter-clockwise side
    ("right", 40),        # approach from the clockwise side
])
def test_next_hop_approach_picks_correct_side_at_seam(approach, expected):
    me = TOP - 50
    table = _table(me, [TOP - 20, 40])
    hop = _next_hop_scan(table, BrunetAddress(me), BrunetAddress(10),
                         approach=approach)
    assert hop is not None
    assert int(hop.peer_addr) == expected


def test_next_hop_direct_link_across_seam():
    table = _table(TOP - 3, [2])
    hop = _next_hop_scan(table, BrunetAddress(TOP - 3), BrunetAddress(2))
    assert hop is not None and int(hop.peer_addr) == 2
