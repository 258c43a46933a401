"""The transport interface protocol code programs against.

``BrunetNode`` never touches sockets, hosts or the simulated internet
directly; it sends through a :class:`Transport` and receives datagrams on
the handler it passed to :meth:`Transport.open`.  The handler contract is
the historical socket one::

    handler(message, src_endpoint, size_bytes)

A transport that carries frames (:attr:`Transport.carries_frames`) hands
every datagram over as the received ``bytes``, after counting it as
received (``received``, ``wire.rx_bytes``), and reads none of it; the one
exception is a *traced* simulated datagram, which ``SimTransport``
decodes itself because only it holds the physical-transit span the
message must adopt (DESIGN.md §5.3).  The node classifies the bytes with
one :func:`repro.wire.frame_view` call: it forwards a routed frame as
bytes (:func:`repro.wire.patch_forward` + :meth:`Transport.send_frame`: a
transit hop builds no message object), takes a tunnelled IP packet out of
the same pass, reads a keep-alive's fields, or decodes the whole frame
with :func:`repro.wire.decode`, counting a failure on
``wire.decode_error`` and dropping it, as a real daemon must treat
garbage datagrams.  A transport that carries objects hands over the
message object itself.

The node reads :attr:`Transport.carries_frames` — not the config — to
decide whether it may also *launch* a packet or a keep-alive as bytes
(:func:`repro.wire.encode_origin`, :func:`repro.wire.ping_frame`,
:func:`repro.wire.ping_reply_frame` + :meth:`Transport.send_frame`).  What
such a transport must offer: ``send`` encodes with
:func:`repro.wire.encode`, which frames protocol types only (tag 17 is
retired and reserved); ``send_frame`` counts and charges a frame exactly
as ``send`` does for the same bytes; every datagram arrives at the handler
as ``bytes``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable

from repro.brunet.uri import Uri
from repro.phys.endpoints import Endpoint

ReceiveHandler = Callable[[Any, Endpoint, int], None]


class Transport(abc.ABC):
    """One node's datagram endpoint (sim-backed or socket-backed)."""

    #: True when messages cross this transport as :mod:`repro.wire`
    #: frames: datagrams reach the handler as ``bytes`` and
    #: :meth:`send_frame` is live, so the node may launch and forward
    #: packets, and send keep-alives, as bytes.  False: objects travel by
    #: reference.
    carries_frames = False

    @property
    @abc.abstractmethod
    def local_endpoint(self) -> Endpoint:
        """The (ip, port) this transport is reachable at."""

    @property
    def local_uri(self) -> Uri:
        """The UDP URI of :attr:`local_endpoint`."""
        ep = self.local_endpoint
        return Uri.udp(ep.ip, ep.port)

    @abc.abstractmethod
    def open(self, handler: ReceiveHandler) -> Endpoint:
        """Begin receiving into ``handler``; returns the bound endpoint
        (which may differ from the requested one, e.g. ephemeral-port
        fallback).  Idempotent across close/open cycles."""

    @abc.abstractmethod
    def send(self, dst: Endpoint, msg: Any, size_hint: int = 0) -> None:
        """Fire-and-forget one message.  ``size_hint`` is the
        paper-constant byte charge; codec-mode transports ignore it and
        charge the encoded length instead."""

    @abc.abstractmethod
    def send_frame(self, dst: Endpoint, frame: bytes) -> None:
        """Fire-and-forget one already-encoded frame (a routed frame the
        node launched with ``encode_origin`` or forwards as received
        bytes, a keep-alive).  Counts and charges exactly what :meth:`send` does for
        the same bytes."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop receiving and release the endpoint (idempotent)."""
