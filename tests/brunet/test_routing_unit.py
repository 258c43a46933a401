"""Unit tests for the greedy decision function and approach routing."""

import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.routing import next_hop
from repro.brunet.table import ConnectionTable
from repro.phys.endpoints import Endpoint

ME = BrunetAddress(10_000)


def table_with(*addrs, me=ME):
    t = ConnectionTable(me)
    for a in addrs:
        t.add(Connection(BrunetAddress(a), Endpoint("1.1.1.1", 1),
                         ConnectionType.STRUCTURED_FAR, 0.0))
    return t


def test_direct_connection_wins():
    t = table_with(500, 2000)
    hop = next_hop(t, ME, BrunetAddress(2000))
    assert hop.peer_addr == 2000


def test_exclude_dest_link_skips_direct():
    t = table_with(2000, 1500)
    hop = next_hop(t, ME, BrunetAddress(2000), exclude_dest_link=True)
    assert hop.peer_addr == 1500


def test_local_minimum_returns_none():
    t = table_with(ME + 10_000_000)
    # I'm closer to dest than my only neighbour
    assert next_hop(t, ME, BrunetAddress(int(ME) + 5)) is None


def test_strictly_closer_required():
    # neighbour equidistant on the other side: not strictly closer
    dest = BrunetAddress(int(ME) + 100)
    t = table_with(int(ME) + 200)
    hop = next_hop(t, ME, dest)
    assert hop is None  # 100 vs 100: tie is not progress


def test_leaf_connections_never_route():
    t = ConnectionTable(ME)
    t.add(Connection(BrunetAddress(5000), Endpoint("1.1.1.1", 1),
                     ConnectionType.LEAF, 0.0))
    assert next_hop(t, ME, BrunetAddress(5001)) is None


class TestApproachMetric:
    # the metric is inline in the scan: a lone peer is taken exactly when
    # its distance (50, or ADDRESS_SPACE - 50 the long way) beats mine

    def test_right_metric_is_clockwise_from_dest(self):
        dest = BrunetAddress(100)
        for me, peer, taken in ((50, 150, True), (150, 50, False),
                                (151, 150, True), (149, 150, False)):
            me = BrunetAddress(me)
            hop = next_hop(table_with(peer, me=me), me, dest,
                           approach="right")
            assert (hop is not None) == taken, (me, peer)

    def test_left_metric_is_counterclockwise(self):
        dest = BrunetAddress(100)
        for me, peer, taken in ((150, 50, True), (50, 150, False),
                                (49, 50, True), (51, 50, False)):
            me = BrunetAddress(me)
            hop = next_hop(table_with(peer, me=me), me, dest,
                           approach="left")
            assert (hop is not None) == taken, (me, peer)

    def test_right_approach_converges_to_successor(self):
        dest = BrunetAddress(1000)
        # me far left of dest; neighbours on both sides of dest
        me = BrunetAddress(900)
        t = table_with(1200, 1050, 990, me=me)
        hop = next_hop(t, me, dest, exclude_dest_link=True,
                       approach="right")
        assert hop.peer_addr == 1050  # closest clockwise of dest

    def test_left_approach_converges_to_predecessor(self):
        dest = BrunetAddress(1000)
        me = BrunetAddress(1100)
        t = table_with(990, 950, 1050, me=me)
        hop = next_hop(t, me, dest, exclude_dest_link=True, approach="left")
        assert hop.peer_addr == 990

    def test_approach_skips_destination_itself(self):
        dest = BrunetAddress(1000)
        me = BrunetAddress(900)
        t = table_with(1000, 1050, me=me)
        hop = next_hop(t, me, dest, approach="right")
        assert hop.peer_addr == 1050
