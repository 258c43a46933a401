"""Ring arithmetic at the 0 / 2^160 seam: the ring neighbours and the
routing metric must treat the address space as circular."""

from __future__ import annotations

import pytest

from repro.brunet.address import (ADDRESS_SPACE, BrunetAddress,
                                  directed_distance, ring_distance)
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.routing import _next_hop_scan
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
# the routing metric with approach sides (``_next_hop_scan`` computes
# these distances inline; tests/brunet/test_inline_metric.py holds it to them)
# ---------------------------------------------------------------------------

def test_metric_ring_distance_across_seam():
    assert ring_distance(BrunetAddress(TOP - 10), BrunetAddress(5)) == 15
    assert ring_distance(BrunetAddress(20), BrunetAddress(TOP - 10)) == 30


def test_metric_approach_sides_across_seam():
    addr, dest = BrunetAddress(TOP - 10), BrunetAddress(5)
    # "left" converges clockwise toward dest: distance addr→dest = 15
    assert directed_distance(addr, dest) == 15
    # "right" stays clockwise *of* dest: distance dest→addr wraps long way
    assert directed_distance(dest, addr) == TOP - 15

    addr2 = BrunetAddress(20)
    assert directed_distance(dest, addr2) == 15       # "right"
    assert directed_distance(addr2, dest) == TOP - 15  # "left"


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
