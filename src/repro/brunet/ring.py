"""Global sorted ring index: every live address in one bisect array.

The per-simulation counterpart of the per-node ring view in
:class:`~repro.brunet.table.ConnectionTable`: a sorted array of 160-bit
addresses (plain ints) with a parallel payload array, maintained
incrementally as nodes join and leave.  ``Deployment`` keeps its nodes
here, so ``Deployment.ring_nodes`` and ``Deployment.ring_consistent``
(the ring verdict over every node's census record) read them in ring
order from :attr:`RingIndex.items` instead of re-sorting the node
registry per call; :meth:`RingIndex.successor` answers a true-successor
query in O(log n).

Insertion keeps the arrays sorted with ``list.insert`` — O(n) element
moves, but a single C-level memmove; across a 10k-node bring-up that is
milliseconds, against the former O(n log n) sort *per census call*.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Optional

from repro.brunet.address import successor_index


class RingIndex:
    """Sorted (addrs, items) parallel arrays keyed by ring address."""

    __slots__ = ("_addrs", "_items")

    def __init__(self) -> None:
        self._addrs: list[int] = []
        self._items: list[Any] = []

    @classmethod
    def from_nodes(cls, nodes: Iterable[Any]) -> "RingIndex":
        """Build from objects with an ``addr`` attribute (one sort)."""
        idx = cls()
        pairs = sorted((int(n.addr), n) for n in nodes)
        idx._addrs = [a for a, _ in pairs]
        idx._items = [n for _, n in pairs]
        return idx

    # -- mutation ----------------------------------------------------------
    def add(self, addr: int, item: Any) -> None:
        """Insert ``item`` at ``addr`` (replaces an existing entry)."""
        a = int(addr)
        i = bisect_left(self._addrs, a)
        if i < len(self._addrs) and self._addrs[i] == a:
            self._items[i] = item
            return
        self._addrs.insert(i, a)
        self._items.insert(i, item)

    def discard(self, addr: int, item: Any = None) -> bool:
        """Remove the entry at ``addr``.  When ``item`` is given the entry
        is only removed if it still holds that exact payload (mirrors the
        guarded ``Deployment.unregister_node`` semantics).  Returns True
        when an entry was removed."""
        a = int(addr)
        i = bisect_left(self._addrs, a)
        if i >= len(self._addrs) or self._addrs[i] != a:
            return False
        if item is not None and self._items[i] is not item:
            return False
        del self._addrs[i]
        del self._items[i]
        return True

    # -- queries -----------------------------------------------------------
    @property
    def items(self) -> list[Any]:
        """Payloads in address order (do not mutate)."""
        return self._items

    def successor(self, addr: int) -> Optional[Any]:
        """Payload of the first address clockwise *after* ``addr``
        (exclusive — the true ring successor of a member address)."""
        n = len(self._addrs)
        if n == 0:
            return None
        a = int(addr)
        i = successor_index(self._addrs, a)
        if self._addrs[i] == a:
            i = (i + 1) % n
        return self._items[i]


__all__ = ["RingIndex"]
