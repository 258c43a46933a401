"""The transport interface protocol code programs against.

``BrunetNode`` never touches sockets, hosts or the simulated internet
directly; it sends through a :class:`Transport` and receives datagrams on
the handler it passed to :meth:`Transport.open`.  The handler contract is
the historical socket one::

    handler(message, src_endpoint, size_bytes)

where ``message`` is a decoded protocol object (transports running the
wire codec decode before dispatch — a frame that fails to decode is
counted on the ``wire.decode_error`` metric and dropped, mirroring how a
real daemon must treat garbage datagrams) — with one exception: a
codec transport hands a *routed* frame (tag ``T_ROUTED``) or a
*keep-alive* frame (``T_PING_REQUEST``, ``T_PING_REPLY``; together
:data:`repro.wire.codec.BYTE_PATH_TAGS`) to the handler as the received
``bytes``, undecoded, after counting it as received.  The node then
classifies the frame with one :func:`repro.wire.frame_view` call and
forwards a routed frame as bytes (:func:`repro.wire.patch_forward` +
:meth:`Transport.send_frame`: a transit hop builds no message object),
takes a tunnelled IP packet out of the same pass, reads a keep-alive's
fields, or decodes the frame itself with :func:`repro.wire.decode_lazy`,
counting a failure on the same ``wire.decode_error`` series.  A handler
that is not a ``BrunetNode`` must therefore accept ``bytes`` for those
frames.

A transport that works this way says so with
:attr:`Transport.carries_frames`; the node reads that attribute — not the
config — to decide whether it may also *launch* a packet or a
keep-alive as bytes (:func:`repro.wire.encode_origin`,
:func:`repro.wire.ping_frame`, :func:`repro.wire.ping_reply_frame` +
:meth:`Transport.send_frame`).  What such a transport must offer:
``send`` encodes with :func:`repro.wire.encode` and counts OPAQUE
fallbacks on ``wire.opaque_frames``; ``send_frame`` counts and charges a
frame exactly as ``send`` does for the same bytes; routed and keep-alive
frames arrive at the handler as ``bytes``.
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
    #: frames: routed and keep-alive frames reach the handler as
    #: ``bytes`` and :meth:`send_frame` is live, so the node may launch
    #: and forward packets, and send keep-alives, as bytes.  False:
    #: objects travel by reference.
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
