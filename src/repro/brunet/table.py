"""Connection table: a node's view of its overlay links.

Provides the queries routing and the overlords need: nearest structured
neighbour to an address, left/right ring neighbours, connections by type.

Hot queries run against an **array-backed ring view**: a sorted array of
peer addresses (plain ints) with a parallel array of connections, rebuilt
lazily after a mutation and answered with bisect instead of object scans.
At the paper's degrees (~2 near + k far + a few shortcuts) either wins;
at 10k-node rings the bisect forms keep `closest_to`/neighbour lookups
O(log k) and — more importantly — allocation-free.

The table carries a monotone ``version`` counter bumped on every mutation
that can change a routing decision (add/remove/label change).  Derived
read-mostly state — the structured-connection snapshot, the sorted ring
view, the per-type buckets and the memoized next-hop cache in
:mod:`repro.brunet.routing` — is invalidated wholesale on a bump, so
routing's hot path re-derives state only after the table actually changed.

Every decision here is **byte-identical** to the pre-array object scans
(PR-5 lowest-address tie-breaks included); the equivalence is pinned by
the brute-force oracle property tests in
``tests/brunet/test_ring_array_equivalence.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Optional

from repro.brunet.address import (BrunetAddress, nearest_index,
                                  predecessor_index, successor_index)
from repro.brunet.connection import Connection, ConnectionType


class ConnectionTable:
    """All live connections of one node, keyed by peer address."""

    def __init__(self, my_addr: BrunetAddress):
        self.my_addr = my_addr
        self._conns: dict[BrunetAddress, Connection] = {}
        self.on_added: list[Callable[[Connection], None]] = []
        self.on_removed: list[Callable[[Connection], None]] = []
        #: bumped on any mutation that can change a routing decision
        self.version = 0
        self._structured_cache: Optional[tuple[Connection, ...]] = None
        #: sorted (addrs, conns) parallel arrays over structured peers
        self._ring_cache: Optional[
            tuple[list[int], list[Connection]]] = None
        self._type_cache: dict[ConnectionType, tuple[Connection, ...]] = {}
        #: (my_addr, dest, exclude_dest_link, approach) -> Connection|None,
        #: owned here, filled by repro.brunet.routing.next_hop
        self.next_hop_cache: dict[tuple, Optional[Connection]] = {}

    def bump_version(self) -> None:
        """Invalidate routing caches after a table mutation."""
        self.version += 1
        self._structured_cache = None
        self._ring_cache = None
        if self._type_cache:
            self._type_cache.clear()
        if self.next_hop_cache:
            self.next_hop_cache.clear()

    # -- mutation ---------------------------------------------------------
    def add(self, conn: Connection) -> Connection:
        """Insert the connection, or merge its labels into an existing link
        to the same peer (a node pair needs at most one physical link)."""
        old = self._conns.get(conn.peer_addr)
        if old is not None:
            old.heard_from(conn.established_at)
            grew = bool(conn.types - old.types)
            old.types |= conn.types
            old.remote_endpoint = conn.remote_endpoint
            if grew:
                self.bump_version()
                for cb in list(self.on_added):
                    cb(old)
            return old
        self._conns[conn.peer_addr] = conn
        conn._table = self
        self.bump_version()
        for cb in list(self.on_added):
            cb(conn)
        return conn

    def remove(self, peer_addr: BrunetAddress) -> Optional[Connection]:
        """Drop the connection to ``peer_addr`` (fires on_removed)."""
        conn = self._conns.pop(peer_addr, None)
        if conn is not None:
            conn.closed = True
            conn._table = None
            self.bump_version()
            for cb in list(self.on_removed):
                cb(conn)
        return conn

    def clear(self) -> None:
        """Drop every connection (node shutdown)."""
        for addr in list(self._conns):
            self.remove(addr)

    # -- queries ----------------------------------------------------------
    def get(self, peer_addr: BrunetAddress) -> Optional[Connection]:
        """The connection to ``peer_addr``, or None."""
        return self._conns.get(peer_addr)

    def __contains__(self, peer_addr: BrunetAddress) -> bool:
        return peer_addr in self._conns

    def __len__(self) -> int:
        return len(self._conns)

    def all(self) -> list[Connection]:
        """Snapshot list of every live connection."""
        return list(self._conns.values())

    def by_type(self, conn_type: ConnectionType) -> tuple[Connection, ...]:
        """Connections carrying the given type label (snapshot tuple in
        insertion order, rebuilt only after a table mutation)."""
        cached = self._type_cache.get(conn_type)
        if cached is None:
            cached = self._type_cache[conn_type] = tuple(
                c for c in self._conns.values() if conn_type in c.types)
        return cached

    def structured(self) -> Iterable[Connection]:
        """Connections that participate in greedy routing (snapshot tuple
        in insertion order, rebuilt only after a table mutation)."""
        cached = self._structured_cache
        if cached is None:
            cached = self._structured_cache = tuple(
                c for c in self._conns.values() if c.structured)
        return cached

    def ring_view(self) -> tuple[list[int], list[Connection]]:
        """Sorted parallel arrays over structured peers: ``(addrs, conns)``
        with ``addrs`` ascending ints and ``conns[i].peer_addr == addrs[i]``.
        Rebuilt lazily after a mutation; the bisect queries below (and
        :func:`repro.brunet.routing._next_hop_scan`) run against it."""
        cached = self._ring_cache
        if cached is None:
            conns = sorted(self.structured(),
                           key=lambda c: int(c.peer_addr))
            cached = self._ring_cache = (
                [int(c.peer_addr) for c in conns], conns)
        return cached

    def closest_to(self, dest: BrunetAddress) -> Optional[Connection]:
        """Structured connection whose peer is nearest to ``dest`` on the
        ring; None when the table has no structured connections.

        Two peers can be exactly equidistant from ``dest`` (one on each
        side); the tie goes to the lower address so the answer never
        depends on table insertion order.
        """
        addrs, conns = self.ring_view()
        if not addrs:
            return None
        return conns[nearest_index(addrs, int(dest))]

    def right_neighbor(self) -> Optional[Connection]:
        """Nearest structured peer clockwise of me."""
        return self._directional_neighbor(clockwise=True)

    def left_neighbor(self) -> Optional[Connection]:
        """Nearest structured peer counter-clockwise of me."""
        return self._directional_neighbor(clockwise=False)

    def _directional_neighbor(self, clockwise: bool) -> Optional[Connection]:
        addrs, conns = self.ring_view()
        n = len(addrs)
        if n == 0:
            return None
        me = int(self.my_addr)
        if clockwise:
            i = successor_index(addrs, me)
            if addrs[i] == me:  # a link to my own address never counts
                i = (i + 1) % n
        else:
            i = predecessor_index(addrs, me)
            if addrs[i] == me:  # only in a one-element self-link table
                i = (i - 1) % n
        if addrs[i] == me:
            return None
        return conns[i]

    def neighbors_of(self, addr: BrunetAddress,
                     per_side: int = 1) -> list[Connection]:
        """Up to ``per_side`` nearest structured peers on each side of
        ``addr`` (used when answering a joining node's CTM-to-self).
        Clockwise picks first, then counter-clockwise, deduplicated —
        peers are unique by address, so the two walks are each simply a
        contiguous run of the sorted ring view."""
        addrs, conns = self.ring_view()
        n = len(addrs)
        if n == 0:
            return []
        target = int(addr)
        start = bisect_left(addrs, target)
        picked: dict[BrunetAddress, Connection] = {}
        i, taken, steps = start % n, 0, 0
        while taken < per_side and steps < n:
            if addrs[i] != target:
                picked[conns[i].peer_addr] = conns[i]
                taken += 1
            i = (i + 1) % n
            steps += 1
        i, taken, steps = (start - 1) % n, 0, 0
        while taken < per_side and steps < n:
            if addrs[i] != target:
                picked.setdefault(conns[i].peer_addr, conns[i])
                taken += 1
            i = (i - 1) % n
            steps += 1
        return list(picked.values())
