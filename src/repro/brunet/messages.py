"""Protocol message types.

Messages travel either *directly* over UDP (link handshake, pings) or
wrapped in a :class:`RoutedPacket` and forwarded greedily over overlay
connections (CTM requests/replies, tunnelled IP).  Every type here has a
deterministic binary encoding in :mod:`repro.wire`; ``size`` accounting
uses either the paper constants in
:class:`~repro.brunet.config.BrunetConfig` (``wire_mode="reference"``) or
the encoded length (``"codec"``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.brunet.address import BrunetAddress
from repro.brunet.uri import Uri
from repro.obs.spans import TraceRef

_token_counter = itertools.count(1)


def next_token() -> int:
    """Monotonic token for matching requests with replies.

    .. deprecated::
        This counter is module-global, so a second same-seed run in the
        same process draws different tokens than the first.  Protocol code
        now uses the per-node ``BrunetNode.next_token()`` instead; this
        stays only for tests/tools that need a throwaway token.
    """
    return next(_token_counter)


# ---------------------------------------------------------------------------
# direct (physical-network) messages
# ---------------------------------------------------------------------------

@dataclass
class LinkRequest:
    """Linking-handshake request, sent directly to a candidate URI."""

    token: int
    sender_addr: BrunetAddress
    sender_uris: list[Uri]
    conn_type: str  # ConnectionType value
    #: causal-trace context (None unless the handshake is being traced)
    trace: Optional[TraceRef] = None


@dataclass
class LinkReply:
    """Successful linking response.  ``observed_uri`` tells the requester
    which (possibly NAT-assigned) endpoint its request arrived from — the
    decentralized address-discovery mechanism of §IV-C/§IV-D."""

    token: int
    sender_addr: BrunetAddress
    sender_uris: list[Uri]
    observed_uri: Uri
    conn_type: str
    trace: Optional[TraceRef] = None


@dataclass
class LinkError:
    """Race-resolution message: the target should abandon its attempt and
    let the sender's in-flight attempt proceed (§IV-B)."""

    token: int
    sender_addr: BrunetAddress
    reason: str = "busy"


@dataclass
class CloseMessage:
    """Graceful connection teardown: the sender has discarded its state for
    this link (trimmed near label, shortcut eviction, shutdown)."""

    sender_addr: BrunetAddress
    reason: str = ""


@dataclass
class PingRequest:
    """Keep-alive probe over an established connection."""

    token: int
    sender_addr: BrunetAddress


@dataclass
class PingReply:
    """Keep-alive answer; echoes the observed source for NAT-remap
    detection (§V-E).

    ``known`` reports whether the replier still holds a connection to the
    requester.  A peer that crashed and restarted answers pings (the socket
    is rebound) but has forgotten the link — without this flag such zombie
    one-way connections survive the keep-alive protocol forever."""

    token: int
    sender_addr: BrunetAddress
    observed_uri: Uri
    known: bool = True


# ---------------------------------------------------------------------------
# overlay-routed payloads
# ---------------------------------------------------------------------------

@dataclass
class CtmRequest:
    """Connect-To-Me: conveys intent to connect plus the initiator's URIs,
    routed over the overlay to the target address (§IV-B).

    ``reply_via`` supports the join announce (§IV-C): a node not yet in the
    ring asks responders to route replies to its leaf target, which relays
    them over the leaf connection.  ``fanout`` lets the nearest node forward
    one copy to its neighbour on the far side of the joining address so the
    joiner learns *both* ring neighbours.
    """

    token: int
    initiator_addr: BrunetAddress
    initiator_uris: list[Uri]
    conn_type: str
    reply_via: Optional[BrunetAddress] = None
    fanout: int = 0


@dataclass
class CtmReply:
    """CTM response carrying the target's URIs, routed back through the
    overlay."""

    token: int
    responder_addr: BrunetAddress
    responder_uris: list[Uri]
    conn_type: str


@dataclass
class IpEncap:
    """A tunnelled virtual-IP packet (handled by the IPOP layer)."""

    payload: Any
    size: int


@dataclass
class Forward:
    """Relay wrapper: the node at the packet's destination re-routes
    ``inner`` toward ``final_dest`` — used so a leaf target can pass CTM
    replies back to a joining node (§IV-C: "acts as forwarding agent")."""

    final_dest: BrunetAddress
    inner: Any
    size: int


@dataclass
class RoutedPacket:
    """Overlay envelope, forwarded greedily toward ``dest``.

    ``exact`` — deliver only to the exact destination (tunnelled IP);
    otherwise the nearest node in the address space accepts it, which is how
    CTM requests reach a joining node's future neighbours (§IV-C).
    ``exclude_dest_link`` — route *around* the destination: never hand the
    packet to the destination itself (join/repair announces must stop at the
    nearest *other* node).
    """

    src: BrunetAddress
    dest: BrunetAddress
    payload: Any
    size: int
    exact: bool = False
    exclude_dest_link: bool = False
    #: directional greedy: "right" delivers at the nearest node clockwise
    #: of ``dest``, "left" counter-clockwise — used by the join-announce
    #: fanout to find the joiner's *other* ring neighbour
    approach: Optional[str] = None
    ttl: int = 32
    hops: int = 0
    via: list = field(default_factory=list)  # node addresses traversed
    #: causal-trace context; each routing hop re-parents it at its own
    #: span, so the hop chain reconstructs as a tree (see repro.obs.spans)
    trace: Optional[TraceRef] = None
