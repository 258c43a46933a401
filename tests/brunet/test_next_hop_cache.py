"""Next-hop cache: memoized decisions must always equal a fresh scan.

The cache in :mod:`repro.brunet.routing` is invalidated wholesale whenever
``ConnectionTable.version`` bumps; these property tests drive arbitrary
add/remove/relabel sequences and check cache coherence after every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.brunet.address import BrunetAddress, random_address
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.routing import _next_hop_scan, next_hop
from repro.brunet.table import ConnectionTable
from repro.phys.endpoints import Endpoint

TYPES = [ConnectionType.LEAF, ConnectionType.STRUCTURED_NEAR,
         ConnectionType.STRUCTURED_FAR, ConnectionType.SHORTCUT]


def _addr(i: int) -> BrunetAddress:
    rng = np.random.default_rng(i)
    return random_address(rng)


@pytest.fixture
def table():
    return ConnectionTable(_addr(0))


def test_cache_hit_returns_same_decision(table):
    for i in range(1, 8):
        table.add(Connection(_addr(i), Endpoint("1.1.1.1", i),
                             ConnectionType.STRUCTURED_FAR, 0.0))
    dest = _addr(99)
    first = next_hop(table, table.my_addr, dest)
    assert list(table.next_hop_cache) == [dest]
    assert next_hop(table, table.my_addr, dest) is first
    assert first is _next_hop_scan(table, table.my_addr, dest)


def test_lookup_from_another_address_is_answered_for_it_unmemoized():
    """The memo is keyed by ``dest`` alone, so it holds only lookups made
    from the table's own address: one from anywhere else is answered for
    that address and leaves no entry for the owner to find."""
    table = ConnectionTable(BrunetAddress(0))
    near, _far = (table.add(Connection(BrunetAddress(a),
                                       Endpoint("1.1.1.1", a),
                                       ConnectionType.STRUCTURED_FAR, 0.0))
                  for a in (100, 200))
    dest = BrunetAddress(150)
    assert next_hop(table, BrunetAddress(149), dest) is None
    assert not table.next_hop_cache
    assert next_hop(table, table.my_addr, dest) is near   # tie: lower address
    assert list(table.next_hop_cache) == [dest]


def test_add_remove_relabel_bump_version_and_clear_cache(table):
    v0 = table.version
    conn = table.add(Connection(_addr(1), Endpoint("1.1.1.1", 1),
                                ConnectionType.LEAF, 0.0))
    assert table.version > v0
    dest = _addr(50)
    next_hop(table, table.my_addr, dest)
    assert table.next_hop_cache

    v1 = table.version
    conn.add_type(ConnectionType.SHORTCUT)     # leaf becomes routable
    assert table.version > v1
    assert not table.next_hop_cache

    next_hop(table, table.my_addr, dest)
    v2 = table.version
    conn.discard_type(ConnectionType.SHORTCUT)
    assert table.version > v2
    assert not table.next_hop_cache

    next_hop(table, table.my_addr, dest)
    v3 = table.version
    table.remove(conn.peer_addr)
    assert table.version > v3
    assert not table.next_hop_cache


def test_relabel_changes_routing_decision(table):
    """A leaf link must not route greedily until it gains a structured
    label — the cache has to notice the transition both ways."""
    peer = _addr(3)
    conn = table.add(Connection(peer, Endpoint("2.2.2.2", 3),
                                ConnectionType.LEAF, 0.0))
    dest = peer  # direct-link fast path applies regardless of labels
    assert next_hop(table, table.my_addr, dest) is conn
    other = _addr(7)
    assert next_hop(table, table.my_addr, other) is None  # leaf: no greedy
    conn.add_type(ConnectionType.STRUCTURED_FAR)
    fresh = _next_hop_scan(table, table.my_addr, other)
    assert next_hop(table, table.my_addr, other) is fresh
    conn.discard_type(ConnectionType.STRUCTURED_FAR)
    assert next_hop(table, table.my_addr, other) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "remove", "label",
                                           "unlabel"]),
                          st.integers(1, 12), st.integers(0, 3)),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 20), st.booleans(),
                          st.sampled_from([None, "left", "right"])),
                min_size=1, max_size=8))
def test_cached_always_equals_fresh_scan(ops, queries):
    table = ConnectionTable(_addr(0))
    for op, peer_i, type_i in ops:
        peer = _addr(peer_i)
        if op == "add":
            table.add(Connection(peer, Endpoint("9.9.9.9", peer_i),
                                 TYPES[type_i], 0.0))
        elif op == "remove":
            table.remove(peer)
        else:
            conn = table.get(peer)
            if conn is not None:
                if op == "label":
                    conn.add_type(TYPES[type_i])
                elif len(conn.types) > 1:  # never strip the last label
                    conn.discard_type(TYPES[type_i])
        for dest_i, exclude, approach in queries:
            dest = _addr(dest_i)
            cached = next_hop(table, table.my_addr, dest, exclude, approach)
            fresh = _next_hop_scan(table, table.my_addr, dest, exclude,
                                   approach)
            assert cached is fresh, (op, peer_i, dest_i, exclude, approach)


def test_cache_size_is_bounded(table):
    from repro.brunet import routing
    for i in range(1, 10):
        table.add(Connection(_addr(i), Endpoint("1.1.1.1", i),
                             ConnectionType.STRUCTURED_FAR, 0.0))
    for i in range(routing._CACHE_MAX + 50):
        next_hop(table, table.my_addr, _addr(1000 + i))
    assert len(table.next_hop_cache) <= routing._CACHE_MAX + 1
