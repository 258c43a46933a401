"""Array-backed ring view vs brute-force object-scan oracle (ISSUE 9).

`ConnectionTable.closest_to`/`_directional_neighbor` and
`routing._next_hop_scan` now answer from sorted parallel arrays with
bisect.  Each test replays the pre-refactor linear scan (the oracle,
copied verbatim from the old implementations) over the same table and
asserts the decisions are identical — including ring wraparound, exact
equidistant ties (one candidate per side), destinations present in the
table, excluded direct links and both approach sides.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brunet.address import (ADDRESS_SPACE, BrunetAddress,
                                  directed_distance, ring_distance)
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.routing import _next_hop_scan
from repro.brunet.table import ConnectionTable
from repro.phys.endpoints import Endpoint


def _table(me, addrs):
    table = ConnectionTable(BrunetAddress(me))
    for i, a in enumerate(addrs):
        table.add(Connection(BrunetAddress(a), Endpoint("1.1.1.1", i + 1),
                             ConnectionType.STRUCTURED_NEAR, 0.0))
    return table


# -- oracles: the pre-array linear scans, verbatim -------------------------

def _metric(addr, dest, approach):
    """The routing metric as a function (``_next_hop_scan`` inlines it)."""
    if approach == "right":
        return directed_distance(dest, addr)
    if approach == "left":
        return directed_distance(addr, dest)
    return ring_distance(addr, dest)


def oracle_closest_to(table, dest):
    best, best_d = None, None
    for conn in table.structured():
        d = ring_distance(conn.peer_addr, dest)
        if (best_d is None or d < best_d
                or (d == best_d and conn.peer_addr < best.peer_addr)):
            best, best_d = conn, d
    return best


def oracle_directional(table, clockwise):
    best, best_d = None, None
    for conn in table.structured():
        d = (directed_distance(table.my_addr, conn.peer_addr) if clockwise
             else directed_distance(conn.peer_addr, table.my_addr))
        if d == 0:
            continue
        if (best_d is None or d < best_d
                or (d == best_d and conn.peer_addr < best.peer_addr)):
            best, best_d = conn, d
    return best


def oracle_next_hop_scan(table, my_addr, dest, exclude_dest_link=False,
                         approach=None):
    if not exclude_dest_link and approach is None:
        direct = table.get(dest)
        if direct is not None:
            return direct
    my_d = _metric(my_addr, dest, approach)
    best, best_d = None, my_d
    for conn in table.structured():
        if conn.peer_addr == dest and (exclude_dest_link or approach):
            continue
        d = _metric(conn.peer_addr, dest, approach)
        if d < best_d or (d == best_d and best is not None
                          and conn.peer_addr < best.peer_addr):
            best, best_d = conn, d
    return best


# -- strategies ------------------------------------------------------------
# Small offsets around probe points make wraparound and exact-tie cases
# (peers at probe ± d) common instead of measure-zero.

offsets = st.integers(min_value=-64, max_value=64)
anchors = st.sampled_from(
    [0, 1, 100, ADDRESS_SPACE // 2, ADDRESS_SPACE - 1])
near_addr = st.builds(lambda a, o: (a + o) % ADDRESS_SPACE, anchors, offsets)
any_addr = st.one_of(near_addr, st.integers(0, ADDRESS_SPACE - 1))
addr_lists = st.lists(any_addr, min_size=0, max_size=10, unique=True)


@given(me=any_addr, addrs=addr_lists, dest=any_addr)
@settings(max_examples=300, deadline=None)
def test_closest_to_matches_oracle(me, addrs, dest):
    table = _table(me, addrs)
    dest = BrunetAddress(dest)
    got, want = table.closest_to(dest), oracle_closest_to(table, dest)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.peer_addr == want.peer_addr


@given(me=any_addr, addrs=addr_lists)
@settings(max_examples=300, deadline=None)
def test_directional_neighbor_matches_oracle(me, addrs):
    table = _table(me, addrs)
    for clockwise in (True, False):
        got = table._directional_neighbor(clockwise)
        want = oracle_directional(table, clockwise)
        assert (got is None) == (want is None), clockwise
        if got is not None:
            assert got.peer_addr == want.peer_addr, clockwise


@given(me=any_addr, addrs=addr_lists, dest=any_addr,
       exclude=st.booleans(),
       approach=st.sampled_from([None, "left", "right"]))
@settings(max_examples=400, deadline=None)
def test_next_hop_scan_matches_oracle(me, addrs, dest, exclude, approach):
    table = _table(me, addrs)
    me, dest = BrunetAddress(me), BrunetAddress(dest)
    got = _next_hop_scan(table, me, dest, exclude, approach)
    want = oracle_next_hop_scan(table, me, dest, exclude, approach)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.peer_addr == want.peer_addr
        assert got is want  # same Connection object, not just same peer


def test_dest_present_in_table_with_exclusion():
    """Excluded direct link: the scan must step past dest in the array."""
    table = _table(0, [100, 200, 300])
    dest = BrunetAddress(200)
    got = _next_hop_scan(table, BrunetAddress(0), dest,
                         exclude_dest_link=True)
    want = oracle_next_hop_scan(table, BrunetAddress(0), dest,
                                exclude_dest_link=True)
    assert got is want is not None
    assert got.peer_addr != dest
