"""Datagram model.

A :class:`Datagram` is one UDP packet travelling through the simulated
internet.  ``payload`` is any Python object (protocol message) — or raw
``bytes`` when the sending transport runs the wire codec.  ``size`` is
the on-wire size in bytes used for serialization-delay accounting.  NATs
rewrite ``src``/``dst`` in place as the packet crosses them, and append to
the ``path`` of a traced packet, which its ``phys.tx`` span carries.

``header`` selects the fixed framing charge added on top of ``size``.
The reference (paper-constant) accounting uses :data:`HEADER_BYTES`,
which bundles IP + UDP *and* overlay framing into one constant.  The
codec mode passes :data:`~repro.wire.codec.UDP_IP_OVERHEAD` instead,
because there the overlay framing is already part of the encoded payload
length — charging :data:`HEADER_BYTES` on top would count it twice.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.phys.endpoints import Endpoint

# Rough fixed header cost (IP + UDP + overlay framing) added to payloads
# in the reference (paper-constant) accounting mode.
HEADER_BYTES = 60


class Datagram:
    """One simulated UDP packet."""

    __slots__ = ("src", "dst", "payload", "size", "proto", "path",
                 "orig_src", "trace", "span")

    def __init__(self, src: Endpoint, dst: Endpoint, payload: Any,
                 size: Optional[int] = None, proto: str = "udp",
                 header: Optional[int] = None):
        self.src = src
        self.dst = dst
        self.payload = payload
        framing = HEADER_BYTES if header is None else header
        self.size = framing + (size if size is not None else 0)
        self.proto = proto
        # original (pre-NAT) source, for trace assertions
        self.orig_src = src
        # a list once the first hop() is recorded
        self.path: Sequence[str] = ()
        # causal-trace context lifted off the payload by Internet.send
        # when span tracing is on; ``span`` is the open phys.tx span id
        self.trace = None
        self.span = None

    def hop(self, label: str) -> None:
        """Record a traversal step (NAT, core, delivery)."""
        if self.path:
            self.path.append(label)
        else:
            self.path = [label]

    def __repr__(self) -> str:  # pragma: no cover
        kind = type(self.payload).__name__
        return f"<Datagram {self.src}->{self.dst} {kind} {self.size}B>"
