"""Overlay connections.

A :class:`Connection` is "an overlay link between P2P nodes over which
packets are routed" (§IV).  It remembers the peer's address, the physical
endpoint that worked during linking, and keep-alive bookkeeping.

A node pair needs only one physical link, but the link can serve several
roles at once — it may simultaneously be a structured-near connection and a
shortcut — so a connection carries a *set* of type labels.  Overlords manage
labels; the link itself is shared.  The set is immutable and shared: every
connection with the same labels holds the same ``frozenset`` object from
:func:`label_set`, and a label change rebinds the field.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Union

from repro.brunet.address import BrunetAddress
from repro.phys.endpoints import Endpoint


class ConnectionType(str, enum.Enum):
    """Roles an overlay link can play (paper §IV-A/§IV-E)."""

    LEAF = "leaf"
    STRUCTURED_NEAR = "structured.near"
    STRUCTURED_FAR = "structured.far"
    SHORTCUT = "shortcut"

    @property
    def structured(self) -> bool:
        """Structured connections participate in greedy routing."""
        return self in ROUTING_TYPES


#: the labels that participate in greedy routing
ROUTING_TYPES = frozenset({ConnectionType.STRUCTURED_NEAR,
                           ConnectionType.STRUCTURED_FAR,
                           ConnectionType.SHORTCUT})

#: every label combination (16 of them), each the one shared instance
_LABEL_SETS = {s: s for s in (
    frozenset(c) for r in range(len(ConnectionType) + 1)
    for c in itertools.combinations(ConnectionType, r))}


def label_set(types: Iterable[ConnectionType]) -> frozenset[ConnectionType]:
    """The shared immutable label set equal to ``types``."""
    return _LABEL_SETS[frozenset(types)]


class Connection:
    """One established overlay link (one node's view of it)."""

    __slots__ = ("peer_addr", "remote_endpoint", "types", "established_at",
                 "closed", "last_heard", "unanswered_pings", "packets_sent",
                 "packets_received", "bytes_sent", "_table")

    def __init__(self, peer_addr: BrunetAddress, remote_endpoint: Endpoint,
                 conn_type: Union[ConnectionType, Iterable[ConnectionType]],
                 now: float):
        self.peer_addr = peer_addr
        self.remote_endpoint = remote_endpoint
        self.types = label_set((conn_type,)
                               if isinstance(conn_type, ConnectionType)
                               else conn_type)
        self.established_at = now
        self.closed = False
        self.last_heard = now
        self.unanswered_pings = 0
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        # back-reference set by ConnectionTable.add so label changes
        # invalidate the table's routing caches
        self._table = None

    @property
    def structured(self) -> bool:
        """True when any label participates in greedy routing (one C-level
        set operation: no Python call, whatever the hash seed)."""
        return not ROUTING_TYPES.isdisjoint(self.types)

    @property
    def conn_type(self) -> ConnectionType:
        """Most specific label, for display/trace purposes."""
        for t in (ConnectionType.STRUCTURED_NEAR, ConnectionType.SHORTCUT,
                  ConnectionType.STRUCTURED_FAR, ConnectionType.LEAF):
            if t in self.types:
                return t
        return next(iter(self.types))  # pragma: no cover - types never empty

    def add_type(self, conn_type: ConnectionType) -> None:
        """Give the link an additional role label."""
        if conn_type not in self.types:
            self.types = label_set(self.types | {conn_type})
            if self._table is not None:
                self._table.bump_version()

    def discard_type(self, conn_type: ConnectionType) -> None:
        """Remove a role label (the link survives if others remain)."""
        if conn_type in self.types:
            self.types = label_set(self.types - {conn_type})
            if self._table is not None:
                self._table.bump_version()

    def heard_from(self, now: float) -> None:
        """Any traffic from the peer refreshes keep-alive state."""
        self.last_heard = now
        self.unanswered_pings = 0

    def __repr__(self) -> str:  # pragma: no cover
        labels = "+".join(sorted(t.value for t in self.types))
        return f"<Conn {labels} peer={self.peer_addr!r} via {self.remote_endpoint}>"
