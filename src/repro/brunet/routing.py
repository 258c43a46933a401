"""Greedy ring routing helpers.

The forwarding decision itself lives in :meth:`BrunetNode.route`; this
module holds the pure decision function (unit-testable without nodes) and
:func:`trace_route`, which previews the overlay path a packet would take —
the fluid-flow layer maps these paths onto bandwidth resources.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Optional

from repro.brunet.address import BrunetAddress, directed_distance, ring_distance
from repro.brunet.connection import Connection
from repro.brunet.table import ConnectionTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode


def _metric(addr: BrunetAddress, dest: BrunetAddress,
            approach: Optional[str]) -> int:
    """Greedy distance.  With an ``approach`` side the packet must stay on
    (and converge from) that side of ``dest``: "right" = clockwise of dest,
    "left" = counter-clockwise."""
    if approach == "right":
        return directed_distance(dest, addr)
    if approach == "left":
        return directed_distance(addr, dest)
    return ring_distance(addr, dest)


#: cache-miss sentinel (None is a valid cached decision)
_MISS = object()

#: wholesale-clear threshold so a long-lived static table cannot pin
#: unbounded numbers of destination entries
_CACHE_MAX = 4096


def next_hop(table: ConnectionTable, my_addr: BrunetAddress,
             dest: BrunetAddress,
             exclude_dest_link: bool = False,
             approach: Optional[str] = None) -> Optional[Connection]:
    """The connection a greedy router forwards toward ``dest`` over, or
    None when this node is a local minimum (deliver here / drop).

    Each hop strictly decreases the metric to the destination, so greedy
    forwarding can never loop.

    Plain lookups from the table's own address are memoized in
    ``table.next_hop_cache`` by ``dest``, cleared on every ``version``
    bump, so a hit equals a fresh scan; the rest scan (DESIGN.md §10.5).
    """
    if (exclude_dest_link or approach is not None
            or my_addr is not table.my_addr):
        return _next_hop_scan(table, my_addr, dest, exclude_dest_link,
                              approach)
    cache = table.next_hop_cache
    hit = cache.get(dest, _MISS)
    if hit is not _MISS:
        return hit
    result = _next_hop_scan(table, my_addr, dest)
    if len(cache) >= _CACHE_MAX:
        cache.clear()
    cache[dest] = result
    return result


def _next_hop_scan(table: ConnectionTable, my_addr: BrunetAddress,
                   dest: BrunetAddress,
                   exclude_dest_link: bool = False,
                   approach: Optional[str] = None) -> Optional[Connection]:
    """Uncached greedy decision (the memoization oracle).

    Runs against the table's sorted ring view: whichever peer minimizes
    the metric must be the destination's ring successor or predecessor
    within the view (stepping one further along when the adjacent entry
    is an excluded direct link to ``dest``), so only one or two bisect
    candidates are ever examined.  An exact tie — one candidate per side
    of ``dest``, possible only for the undirected metric — breaks to the
    lower address; a hop is taken only when it *strictly* decreases the
    metric, exactly as the pre-array object scan decided.
    """
    if not exclude_dest_link and approach is None:
        direct = table.get(dest)
        if direct is not None:
            return direct
    addrs, conns = table.ring_view()
    n = len(addrs)
    if n == 0:
        return None
    skip_dest = exclude_dest_link or approach is not None
    pos = bisect_left(addrs, dest)
    if approach == "left":
        # metric is ccw distance from dest: candidate is the predecessor
        # (bisect_left guarantees addrs[pos-1] != dest, wrap aside)
        cand = ((pos - 1) % n,)
    else:
        i = pos % n
        if skip_dest and addrs[i] == dest:
            i = (i + 1) % n
        if approach == "right":
            # metric is cw distance from dest: candidate is the successor
            cand = (i,)
        else:
            j = (pos - 1) % n
            cand = (i,) if i == j else (i, j)
    my_d = _metric(my_addr, dest, approach)
    best: Optional[Connection] = None
    best_d = my_d
    for k in cand:
        a = addrs[k]
        if skip_dest and a == dest:
            continue
        d = _metric(a, dest, approach)
        if d < best_d or (d == best_d and best is not None
                          and a < best.peer_addr):
            best, best_d = conns[k], d
    return best


def trace_route(start: "BrunetNode", dest: BrunetAddress,
                resolve: Callable[[BrunetAddress], Optional["BrunetNode"]],
                max_hops: int = 32) -> Optional[list["BrunetNode"]]:
    """Preview the node sequence a packet from ``start`` to ``dest`` takes.

    ``resolve`` maps a peer address to its live node (a deployment
    registry).  Returns None when the route is currently broken (a hop's
    node is down or a local minimum short of the destination is reached) —
    callers pause flows in that case, mirroring the paper's migration
    outage.
    """
    path = [start]
    current = start
    for _ in range(max_hops):
        if current.addr == dest:
            return path
        conn = next_hop(current.table, current.addr, dest)
        if conn is None:
            return None
        nxt = resolve(conn.peer_addr)
        if nxt is None or not nxt.active:
            return None
        path.append(nxt)
        current = nxt
    return None


def overlay_hop_count(start: "BrunetNode", dest: BrunetAddress,
                      resolve: Callable[[BrunetAddress], Optional["BrunetNode"]]
                      ) -> Optional[int]:
    """Number of overlay hops from ``start`` to ``dest`` (None if broken)."""
    path = trace_route(start, dest, resolve)
    return None if path is None else len(path) - 1
