"""ConnectionTable queries and label-merge semantics."""

import gc
import itertools

import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.table import ConnectionTable
from repro.phys.endpoints import Endpoint
from tests.conftest import calls_by_name

ME = BrunetAddress(1000)


def conn(addr, ctype=ConnectionType.STRUCTURED_NEAR, port=1):
    return Connection(BrunetAddress(addr), Endpoint("1.1.1.1", port),
                      ctype, 0.0)


@pytest.fixture
def table():
    return ConnectionTable(ME)


def test_add_and_get(table):
    c = table.add(conn(2000))
    assert table.get(BrunetAddress(2000)) is c
    assert BrunetAddress(2000) in table
    assert len(table) == 1


def test_add_same_peer_merges_labels(table):
    table.add(conn(2000, ConnectionType.LEAF))
    merged = table.add(conn(2000, ConnectionType.STRUCTURED_NEAR))
    assert len(table) == 1
    assert merged.types == {ConnectionType.LEAF,
                            ConnectionType.STRUCTURED_NEAR}


def test_merge_fires_on_added_only_for_new_labels(table):
    events = []
    table.on_added.append(lambda c: events.append(set(c.types)))
    table.add(conn(2000, ConnectionType.LEAF))
    table.add(conn(2000, ConnectionType.LEAF))  # duplicate: no event
    table.add(conn(2000, ConnectionType.SHORTCUT))
    assert len(events) == 2


def test_remove_fires_callback(table):
    removed = []
    table.on_removed.append(lambda c: removed.append(c.peer_addr))
    table.add(conn(2000))
    assert table.remove(BrunetAddress(2000)) is not None
    assert removed == [BrunetAddress(2000)]
    assert table.remove(BrunetAddress(2000)) is None


def test_by_type_uses_label_sets(table):
    c = table.add(conn(2000, ConnectionType.LEAF))
    c.add_type(ConnectionType.SHORTCUT)
    assert list(table.by_type(ConnectionType.SHORTCUT)) == [c]
    assert list(table.by_type(ConnectionType.LEAF)) == [c]
    assert list(table.by_type(ConnectionType.STRUCTURED_FAR)) == []


def test_leaf_only_connection_not_structured(table):
    table.add(conn(2000, ConnectionType.LEAF))
    assert list(table.structured()) == []
    assert table.closest_to(BrunetAddress(2000)) is None


def test_closest_to(table):
    table.add(conn(2000))
    table.add(conn(5000))
    table.add(conn(9000))
    best = table.closest_to(BrunetAddress(5100))
    assert best.peer_addr == 5000


def test_left_right_neighbors(table):
    table.add(conn(900))    # just left of me (1000)
    table.add(conn(1200))   # just right
    table.add(conn(50000))  # far right
    assert table.right_neighbor().peer_addr == 1200
    assert table.left_neighbor().peer_addr == 900


def test_neighbors_wrap_around_ring(table):
    # only one peer: it is both left and right neighbour
    table.add(conn(2000))
    assert table.right_neighbor().peer_addr == 2000
    assert table.left_neighbor().peer_addr == 2000


def test_neighbors_of(table):
    table.add(conn(500))
    table.add(conn(900))
    table.add(conn(1200))
    table.add(conn(4000))
    picked = table.neighbors_of(BrunetAddress(1100), per_side=1)
    addrs = {int(c.peer_addr) for c in picked}
    assert addrs == {900, 1200}


def test_clear_removes_all(table):
    table.add(conn(2000))
    table.add(conn(3000))
    removed = []
    table.on_removed.append(lambda c: removed.append(c))
    table.clear()
    assert len(table) == 0 and len(removed) == 2


#: every non-empty set of labels a link can carry
LABEL_SETS = [set(c) for n in range(1, len(ConnectionType) + 1)
              for c in itertools.combinations(ConnectionType, n)]


@pytest.mark.parametrize("labels", LABEL_SETS,
                         ids=lambda ls: "+".join(sorted(t.value for t in ls)))
def test_structured_is_one_set_operation(labels):
    """``structured`` answers as the per-label scan did, but in one
    C-level set operation: its Python call count cannot depend on the
    hash seed's iteration order."""
    c = conn(2000, labels)
    routing = (ConnectionType.STRUCTURED_NEAR, ConnectionType.STRUCTURED_FAR,
               ConnectionType.SHORTCUT)
    assert c.structured == any(t in routing for t in labels)
    gc.disable()    # a collection would run gc.callbacks inside the window
    try:
        calls = calls_by_name(lambda: c.structured)
    finally:
        gc.enable()
    assert calls == {"<lambda>": 1, "structured": 1}
