"""BrunetNode: one P2P router.

Owns the UDP socket, connection table, linker, overlords and the greedy
router.  The IPOP layer sits on top via :attr:`ip_handler` (inbound
tunnelled packets) and :meth:`inspect_traffic` (outbound traffic scores for
the shortcut overlord).

On a transport that carries frames (``Transport.carries_frames``) every
untraced datagram arrives as the received bytes, and the node is its
only decoder.  The common routed packets never become objects:
:meth:`send_routed` launches an untraced ``exact`` packet as one
``wire.encode_origin`` frame, and :meth:`_on_datagram` classifies a
received frame with one ``wire.frame_view`` call — transit (→
:meth:`_cut_through`), a tunnelled IP packet that has arrived (→
:meth:`_deliver_ip`) or a keep-alive — and only the rest is decoded (a
failure counted on ``wire.decode_error``) and walks :meth:`route` /
:meth:`send_over` / :meth:`_deliver`, the path every packet takes on a
transport that carries objects.  Each byte path does the object path's
bookkeeping to the counter (DESIGN.md §5.3).  Keep-alives are one
protocol in two framings: on such a transport they leave as
``wire.ping_frame`` / ``wire.ping_reply_frame`` bytes; the handlers work
on the fields either way.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.brunet.address import BrunetAddress, directed_distance, ring_distance
from repro.brunet.config import BrunetConfig, DEFAULT_CONFIG
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.linking import Linker
from repro.brunet.messages import (
    CloseMessage,
    CtmReply,
    CtmRequest,
    Forward,
    IpEncap,
    LinkError,
    LinkReply,
    LinkRequest,
    PingReply,
    PingRequest,
    RoutedPacket,
)
from repro.brunet.routing import next_hop
from repro.brunet.table import ConnectionTable
from repro.brunet.uri import Uri, UriSet
from repro import wire
from repro.wire import codec
from repro.obs.spans import TraceRef
from repro.phys.endpoints import Endpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host
    from repro.sim.engine import Simulator
    from repro.transport.base import Transport


#: the UDP port IPOP/Brunet binds on every simulated node
DEFAULT_PORT = 14001


def keepalive_phase(addr: BrunetAddress) -> float:
    """Where in its ``ping_interval / 2`` period a node's keep-alive tick
    falls, as a fraction in (0, 1]: the low 64 bits of its ring address.

    Nodes started in one instant would otherwise tick in step, and both
    ends of every link would find each other silent and ping in the same
    instant.  Out of step, whichever end ticks first pings and the other
    has just heard from it and stays quiet — the cure Floyd and Jacobson
    give for periodic routing messages that synchronise.  The low bits,
    not the high ones, so that ring neighbours, whose addresses share
    their top bits, do not share a phase.  No RNG is drawn."""
    return ((int(addr) & 0xFFFF_FFFF_FFFF_FFFF) + 1) / 2 ** 64


class BrunetNode:
    """A Brunet P2P router bound to one datagram transport.

    ``host``/``port`` describe the classic sim-backed case (a
    :class:`~repro.transport.sim.SimTransport` is built lazily in
    :meth:`start`).  Passing ``transport`` instead injects any
    :class:`~repro.transport.base.Transport` — e.g. a bound
    :class:`~repro.transport.udp.UdpTransport` — and the identical node
    logic runs over it; ``sim`` may then be a
    :class:`~repro.transport.runtime.RealtimeKernel`.
    """

    # over 29 attributes a per-instance dict loses CPython's shared-key
    # layout and costs ~1.6 KB a node; slots cost 8 B an attribute
    __slots__ = ("sim", "host", "addr", "_addr_bytes", "config", "active",
                 "transport", "name", "port", "uris", "_token_next", "table",
                 "linker", "peer_uris", "ip_handler", "payload_handlers",
                 "stats", "bootstrap_uris", "overlords", "leaf_overlord",
                 "shortcut_overlord", "_ping_timer", "on_connection",
                 "on_disconnection", "joined_at", "started_at", "_m_sent",
                 "_m_forwarded", "_m_delivered", "_m_hops", "_m_decode_err",
                 "_m_conns", "__weakref__")

    def __init__(self, sim: "Simulator", host: Optional["Host"],
                 addr: BrunetAddress,
                 config: Optional[BrunetConfig] = None,
                 port: Optional[int] = None, name: str = "",
                 transport: Optional["Transport"] = None):
        self.sim = sim
        self.host = host
        self.addr = addr
        self._addr_bytes = wire.address_bytes(addr)   # as frames carry it
        self.config = config or DEFAULT_CONFIG
        self.active = False
        self.transport = transport
        if transport is not None:
            ep = transport.local_endpoint
            self.name = name or f"bn.{ep.ip}:{ep.port}"
            self.port = ep.port
            self.uris: UriSet = UriSet(Uri.udp(ep.ip, ep.port))
        else:
            if host is None:
                raise ValueError("BrunetNode needs a host or a transport")
            self.name = name or f"bn.{host.name}"
            self.port = port if port is not None else DEFAULT_PORT
            self.uris = UriSet(Uri.udp(host.ip, self.port))
        #: per-node monotonically increasing protocol token (CTM, linking,
        #: pings) — per-node rather than process-global so that two
        #: same-seed runs in one process emit identical token sequences
        self._token_next = 1
        self.table = ConnectionTable(addr)
        self.linker = Linker(self)
        self.peer_uris: dict[BrunetAddress, list[Uri]] = {}
        self.ip_handler: Optional[Callable[[IpEncap], None]] = None
        #: extension point: routed-payload type → handler(packet)
        self.payload_handlers: dict[type, Callable[[RoutedPacket], None]] = {}
        self.stats: Counter = Counter()
        self.bootstrap_uris: list[Uri] = []
        self.overlords: list = []
        self._ping_timer = None
        # observers of connection changes, called after the overlords
        self.on_connection: list[Callable[[Connection], None]] = []
        self.on_disconnection: list[Callable[[Connection], None]] = []
        self.joined_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.table.on_added.append(self._connection_added)
        self.table.on_removed.append(self._connection_removed)
        # pre-resolved metric children: the per-packet sites write
        # ``.value += 1`` on them, an attribute add and no call
        metrics = sim.obs.metrics
        self._m_sent = metrics.counter("brunet.route.sent", node=self.name)
        self._m_forwarded = metrics.counter("brunet.route.forwarded",
                                            node=self.name)
        self._m_delivered = metrics.counter("brunet.route.delivered",
                                            node=self.name)
        self._m_hops = metrics.histogram("brunet.route.hops",
                                         node=self.name)
        # a frame that reaches the node as bytes and does not decode
        self._m_decode_err = metrics.counter("wire.decode_error",
                                             node=self.name)
        #: ``brunet.connections``, holding this node's callback while it runs
        self._m_conns = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, bootstrap_uris: list[Uri]) -> None:
        """Open the transport and begin joining via the bootstrap URIs."""
        from repro.brunet.overlords import (
            FarConnectionOverlord,
            LeafConnectionOverlord,
            NearConnectionOverlord,
            ShortcutConnectionOverlord,
        )
        if self.active:
            raise RuntimeError(f"{self.name} already started")
        if self.transport is None:
            from repro.transport.sim import SimTransport
            self.transport = SimTransport(self.sim, self.host, self.port,
                                          wire_mode=self.config.wire_mode,
                                          name=self.name)
        ep = self.transport.open(self._on_datagram)
        if ep != self.uris.local.endpoint:
            # ephemeral-port fallback rebinds elsewhere: the old local URI
            # is dead, so re-anchor the advertised set on the live endpoint
            self.port = ep.port
            self.uris = UriSet(Uri.udp(ep.ip, ep.port))
        self.active = True
        self.started_at = self.sim.now
        self._m_conns = self.sim.obs.metrics.gauge_fn(
            "brunet.connections", self.table.__len__, node=self.name)
        self.bootstrap_uris = [u for u in bootstrap_uris
                               if u.endpoint != self.uris.local.endpoint]
        self.shortcut_overlord = ShortcutConnectionOverlord(self)
        self.leaf_overlord = LeafConnectionOverlord(self)
        self.overlords = [
            self.leaf_overlord,
            NearConnectionOverlord(self),
            FarConnectionOverlord(self),
            self.shortcut_overlord,
        ]
        for o in self.overlords:
            o.start()
        self._ping_timer = self.sim.schedule(
            self.config.ping_interval / 2 * keepalive_phase(self.addr),
            self._ping_tick)
        self.trace("node.start")

    def stop(self, notify: bool = False) -> None:
        """Kill the node: the migration recipe is stop + fresh start
        ("killing and restarting the user-level IPOP program", §V-C).

        ``notify=True`` is the graceful-drain variant a long-running
        daemon uses on SIGTERM: every live peer gets a close message so
        it drops its state immediately instead of waiting out the
        keep-alive timeout (and then re-links around the gap at once).
        Default off — close-notify changes sim trajectories.
        """
        if not self.active:
            return
        self.active = False
        self._m_conns.fns.remove(self.table.__len__)    # or it pins us
        for o in self.overlords:
            o.stop()
        self.linker.cancel_all()
        if self._ping_timer is not None:
            self._ping_timer.cancel()
            self._ping_timer = None
        if notify and self.transport is not None:
            # active is already False, so bypass send_direct's gate — the
            # transport itself is still open until the close below
            for conn in self.table.all():
                self.transport.send(conn.remote_endpoint,
                                    CloseMessage(self.addr, "shutdown"),
                                    size_hint=self.config.size_ping)
        if self.transport is not None:
            self.transport.close()
        self.table.clear()
        self.trace("node.stop")

    def rebootstrap(self, uris: list[Uri]) -> int:
        """Merge fresh bootstrap URIs (cached peers, operator-injected
        seeds) into the rotation and kick the leaf overlord, so a
        stranded node tries them at once instead of at its next grid
        instant.  Returns the number of new URIs adopted.

        This is the runtime half of the cached-peer bootstrap design:
        :meth:`start` seeds the initial URI list; ``rebootstrap`` lets a
        daemon keep feeding the rotation as its peer cache evolves, so a
        node that comes back after every configured seed died still has
        live endpoints to try.
        """
        fresh = [u for u in uris
                 if u.endpoint != self.uris.local.endpoint
                 and u not in self.bootstrap_uris]
        # freshest information first: the leaf overlord walks the list
        # round-robin, so prepending biases the very next attempt
        self.bootstrap_uris[:0] = fresh
        if fresh and self.active:
            self.leaf_overlord.kick()
        return len(fresh)

    # ------------------------------------------------------------------
    # address-space helpers
    # ------------------------------------------------------------------
    @property
    def sock(self):
        """The underlying receive endpoint (``UdpSocket`` for a sim
        transport, the transport itself for live ones); kept for tests and
        tooling that read ``node.sock.received``-style counters."""
        if self.transport is None:
            return None
        return getattr(self.transport, "sock", self.transport)

    def next_token(self) -> int:
        """The node's next protocol token (monotone, per-node)."""
        token = self._token_next
        self._token_next += 1
        return token

    @property
    def in_ring(self) -> bool:
        """True once the node holds at least one structured-near link."""
        return bool(self.table.by_type(ConnectionType.STRUCTURED_NEAR))

    def leaf_connection(self) -> Optional[Connection]:
        """The bootstrap leaf link, if currently up."""
        leafs = self.table.by_type(ConnectionType.LEAF)
        return leafs[0] if leafs else None

    def census(self) -> dict:
        """This node's census record, JSON-clean: the half of a daemon's
        ``status`` the node itself knows, and what
        :func:`repro.check.invariants.ring_verdict` judges.  ``addr``,
        ``left`` and ``right`` are fixed-width hex, so they sort in ring
        order."""
        left = self.table.left_neighbor()
        right = self.table.right_neighbor()
        return {"name": self.name, "addr": self.addr.hex(),
                "active": self.active, "in_ring": self.in_ring,
                "left": left.peer_addr.hex() if left else None,
                "right": right.peer_addr.hex() if right else None,
                "connections": len(self.table)}

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_direct(self, dst: Endpoint, msg: Any, size: int) -> None:
        """One datagram straight to a physical endpoint.  ``size`` is the
        paper-constant byte charge; codec-mode transports substitute the
        encoded length."""
        if self.transport is not None and self.active:
            self.transport.send(dst, msg, size_hint=size)

    def send_over(self, conn: Connection, pkt: RoutedPacket) -> None:
        if pkt.trace is not None:
            self.sim.obs.spans.hop(
                pkt.trace, "route.hop", self.name, self.sim.now,
                hops=pkt.hops, next=str(conn.peer_addr))
        pkt.hops += 1
        pkt.via.append(self.addr)
        conn.packets_sent += 1
        conn.bytes_sent += pkt.size
        if pkt.src != self.addr:
            self.stats["forwarded"] += 1
            self._m_forwarded.value += 1
        else:
            self.stats["sent"] += 1
            self._m_sent.value += 1
        self.send_direct(conn.remote_endpoint, pkt,
                         pkt.size + self.config.size_routed_header)

    def send_routed(self, dest: BrunetAddress, payload: Any, size: int,
                    exact: bool = True,
                    trace: Optional[TraceRef] = None) -> None:
        """Launch ``payload`` toward ``dest``.  An untraced ``exact``
        packet for another node whose next hop is known leaves a
        frame-carrying transport as one :func:`wire.encode_origin` frame:
        the bookkeeping of :meth:`route` + :meth:`send_over` +
        ``Transport.send`` without a ``RoutedPacket`` or an ``encode``
        walk.  Everything else is routed as an object."""
        if (trace is None and exact and self.active
                and self.transport.carries_frames and dest != self.addr
                and self.config.ttl > 0):
            conn = next_hop(self.table, self.addr, dest, False, None)
            if conn is not None:
                conn.packets_sent += 1
                conn.bytes_sent += size
                self.stats["sent"] += 1
                self._m_sent.value += 1
                opaque = codec.opaque_frames
                frame = wire.encode_origin(
                    self._addr_bytes, wire.address_bytes(dest), size,
                    self.config.ttl, payload)
                if codec.opaque_frames != opaque:
                    self.sim.obs.metrics.counter(
                        "wire.opaque_frames", node=self.name).inc(
                            codec.opaque_frames - opaque)
                self.transport.send_frame(conn.remote_endpoint, frame)
                return
        pkt = RoutedPacket(src=self.addr, dest=dest, payload=payload,
                           size=size, exact=exact, ttl=self.config.ttl,
                           trace=trace)
        self.route(pkt)

    def connect_to(self, dest: BrunetAddress, conn_type: ConnectionType,
                   via_leaf: bool = False, fanout: int = 0) -> None:
        """Initiate the CTM protocol toward ``dest`` (§IV-B step 1)."""
        reply_via = None
        if via_leaf:
            leaf = self.leaf_connection()
            if leaf is not None:
                reply_via = leaf.peer_addr
            elif not self.in_ring:
                return
            # in-ring with no leaf (e.g. every bootstrap seed died): the
            # repair announce routes over structured links and replies
            # come straight back over the ring — self-healing must not
            # depend on the bootstrap overlay staying alive
        msg = CtmRequest(self.next_token(), self.addr, self.uris.advertised(),
                         conn_type.value, reply_via=reply_via, fanout=fanout)
        ref = None
        spans = self.sim.obs.spans
        if spans.enabled:
            tid = spans.maybe_trace("ctm")
            if tid is not None:
                root = spans.start(
                    "ctm.handshake", node=self.name, t=self.sim.now,
                    trace_id=tid, dest=str(dest),
                    conn_type=conn_type.value, via_leaf=via_leaf)
                ref = TraceRef(tid, root)
        pkt = RoutedPacket(src=self.addr, dest=dest, payload=msg,
                           size=self.config.size_ctm, exact=False,
                           exclude_dest_link=(dest == self.addr),
                           ttl=self.config.ttl, trace=ref)
        self.stats["ctm_sent"] += 1
        self.route(pkt)

    def announce(self) -> None:
        """CTM-to-self through the leaf target: find my ring position
        (§IV-C)."""
        self.connect_to(self.addr, ConnectionType.STRUCTURED_NEAR,
                        via_leaf=True, fanout=1)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, pkt: RoutedPacket) -> None:
        """Greedy-forward (or deliver/drop) one overlay packet."""
        if not self.active:
            return
        if pkt.hops >= pkt.ttl:
            self.stats["ttl_drop"] += 1
            if pkt.trace is not None:
                self.sim.obs.spans.hop(
                    pkt.trace, "route.drop", self.name, self.sim.now,
                    reason="ttl", hops=pkt.hops)
            self.trace("route.ttl_drop", dest=pkt.dest)
            return
        if pkt.dest == self.addr and not pkt.exclude_dest_link:
            self._deliver(pkt)
            return
        conn = next_hop(self.table, self.addr, pkt.dest,
                        pkt.exclude_dest_link, pkt.approach)
        if conn is not None:
            self.send_over(conn, pkt)
            return
        # local minimum
        if pkt.src == self.addr and pkt.hops == 0:
            leaf = self.leaf_connection()
            if leaf is not None:
                self.send_over(leaf, pkt)
                return
            if pkt.dest == self.addr and pkt.exclude_dest_link:
                # announce with no leaf (every bootstrap seed dead): a
                # CTM-to-self can never leave this node greedily — no peer
                # is closer to my own address than me — so launch it over
                # the nearest structured link; exclude_dest_link keeps
                # intermediate hops from short-circuiting straight back,
                # and the packet terminates at whichever live node is now
                # actually closest to us (ring repair without bootstrap)
                conns = self.table.structured()
                if conns:
                    conn = min(conns, key=lambda c: ring_distance(
                        c.peer_addr, self.addr))
                    self.send_over(conn, pkt)
                    return
        if pkt.exact and pkt.dest != self.addr:
            self.stats["undeliverable"] += 1
            if pkt.trace is not None:
                self.sim.obs.spans.hop(
                    pkt.trace, "route.drop", self.name, self.sim.now,
                    reason="undeliverable", hops=pkt.hops)
            self.trace("route.undeliverable", dest=pkt.dest)
            return
        self._deliver(pkt)

    def _deliver(self, pkt: RoutedPacket) -> None:
        payload = pkt.payload
        self.stats["delivered"] += 1
        self._m_delivered.value += 1
        self._m_hops.observe(pkt.hops)
        if pkt.trace is not None:
            self.sim.obs.spans.hop(
                pkt.trace, "route.deliver", self.name, self.sim.now,
                hops=pkt.hops, kind=type(payload).__name__)
        if isinstance(payload, CtmRequest):
            self._handle_ctm_request(pkt, payload)
        elif isinstance(payload, CtmReply):
            self._handle_ctm_reply(pkt, payload)
        elif isinstance(payload, Forward):
            inner = RoutedPacket(src=pkt.src, dest=payload.final_dest,
                                 payload=payload.inner, size=payload.size,
                                 exact=True, ttl=self.config.ttl,
                                 hops=pkt.hops, trace=pkt.trace)
            self.route(inner)
        elif isinstance(payload, IpEncap):
            if pkt.dest == self.addr and self.ip_handler is not None:
                if pkt.trace is not None:
                    self.sim.obs.spans.end_trace(
                        pkt.trace.trace_id, self.sim.now,
                        hops=pkt.hops, dest_node=self.name)
                self.ip_handler(payload)
            else:
                self.stats["ip_drop"] += 1
        else:
            handler = self.payload_handlers.get(type(payload))
            if handler is not None:
                handler(pkt)
            else:
                self.trace("route.unhandled", kind=type(payload).__name__)

    # ------------------------------------------------------------------
    # CTM protocol
    # ------------------------------------------------------------------
    def _handle_ctm_request(self, pkt: RoutedPacket, msg: CtmRequest) -> None:
        if msg.initiator_addr == self.addr:
            return
        self.stats["ctm_received"] += 1
        conn_type = ConnectionType(msg.conn_type)
        reply = CtmReply(msg.token, self.addr, self.uris.advertised(),
                         msg.conn_type)
        # the reply travels its own overlay path: branch a fresh ref off
        # the request's arrival point so both paths share the trace but
        # re-parent independently
        reply_ref = (TraceRef(pkt.trace.trace_id, pkt.trace.parent)
                     if pkt.trace is not None else None)
        if msg.reply_via is not None and msg.reply_via != self.addr:
            fwd = Forward(msg.initiator_addr, reply, self.config.size_ctm)
            self.send_routed(msg.reply_via, fwd, self.config.size_ctm,
                             exact=True, trace=reply_ref)
        else:
            self.send_routed(msg.initiator_addr, reply, self.config.size_ctm,
                             exact=True, trace=reply_ref)
        self.linker.start(msg.initiator_addr, msg.initiator_uris, conn_type,
                          trace=pkt.trace)
        if pkt.dest != self.addr and msg.fanout > 0:
            self._ctm_fanout(pkt, msg)

    def _ctm_fanout(self, pkt: RoutedPacket, msg: CtmRequest) -> None:
        """Re-launch a join announce toward the joiner's *other* ring
        neighbour using side-constrained greedy routing, so the joiner
        learns both neighbours even when this responder is not connected to
        the node on the far side (§IV-C)."""
        joining = pkt.dest
        i_am_right = (directed_distance(joining, self.addr)
                      <= directed_distance(self.addr, joining))
        approach = "left" if i_am_right else "right"
        copy = dataclasses.replace(msg, fanout=msg.fanout - 1)
        fan_ref = (TraceRef(pkt.trace.trace_id, pkt.trace.parent)
                   if pkt.trace is not None else None)
        fan_pkt = RoutedPacket(src=pkt.src, dest=joining, payload=copy,
                               size=pkt.size, exact=False,
                               exclude_dest_link=True, approach=approach,
                               ttl=self.config.ttl, hops=pkt.hops,
                               trace=fan_ref)
        self.route(fan_pkt)

    def _handle_ctm_reply(self, pkt: RoutedPacket, msg: CtmReply) -> None:
        self.stats["ctm_reply_received"] += 1
        conn_type = ConnectionType(msg.conn_type)
        self.linker.start(msg.responder_addr, msg.responder_uris, conn_type,
                          trace=pkt.trace)

    # ------------------------------------------------------------------
    # datagram dispatch
    # ------------------------------------------------------------------
    def _on_datagram(self, payload: Any, src: Endpoint, size: int) -> None:
        if not self.active:
            return
        if type(payload) is bytes:
            # a transport that carries frames hands every datagram over
            # undecoded; frame_view classifies one for its byte path, and
            # a frame no byte path takes is decoded whole, here only
            view = wire.frame_view(payload, self._addr_bytes)
            kind = view[0] if view is not None else None
            if kind == codec.T_PING_REQUEST:
                self._handle_ping_request(view[1], view[2], src)
                return
            if kind == codec.T_PING_REPLY:
                self._handle_ping_reply(view[1], view[2], view[3], view[4],
                                        src)
                return
            if kind == codec.T_ROUTED:
                if self._cut_through(payload, view):
                    return
            elif kind == codec.T_IP_ENCAP and self.ip_handler is not None:
                self._deliver_ip(view[1], view[2], view[3])
                return
            try:
                payload = wire.decode(payload)
            except wire.DecodeError:
                self._m_decode_err.inc()
                return
        kind = type(payload)        # keep-alives first: most datagrams
        if kind is PingRequest:
            self._handle_ping_request(payload.token, payload.sender_addr,
                                      src)
        elif kind is PingReply:
            self._handle_ping_reply(payload.token, payload.sender_addr,
                                    payload.observed_uri, payload.known, src)
        elif isinstance(payload, RoutedPacket):
            if payload.via:
                conn = self.table.get(payload.via[-1])
                if conn is not None:
                    conn.heard_from(self.sim.now)
                    conn.packets_received += 1
            self.route(payload)
        elif isinstance(payload, LinkRequest):
            self.linker.handle_request(payload, src)
        elif isinstance(payload, LinkReply):
            self.linker.handle_reply(payload, src)
        elif isinstance(payload, LinkError):
            self.linker.handle_error(payload, src)
        elif isinstance(payload, CloseMessage):
            self.table.remove(payload.sender_addr)
        else:
            self.trace("datagram.unhandled", kind=type(payload).__name__)

    def _cut_through(self, buf: bytes, view: tuple) -> bool:
        """Forward a transit frame as bytes: the bookkeeping of
        :meth:`_on_datagram` + :meth:`send_over` for a frame that only
        passes through here, without a decode, a ``RoutedPacket`` or an
        encode.  False at a local minimum — :meth:`route` then delivers
        or drops the decoded packet."""
        (_, dest, exclude_dest_link, approach, size, previous_hop,
         _hops, _via_count) = view
        conn = next_hop(self.table, self.addr, dest, exclude_dest_link,
                        approach)
        if conn is None:
            return False
        if previous_hop is not None:
            heard = self.table.get(previous_hop)
            if heard is not None:
                heard.heard_from(self.sim.now)
                heard.packets_received += 1
        conn.packets_sent += 1
        conn.bytes_sent += size
        self.stats["forwarded"] += 1
        self._m_forwarded.value += 1
        self.transport.send_frame(
            conn.remote_endpoint,
            wire.patch_forward(buf, view, self._addr_bytes))
        return True

    def _deliver_ip(self, previous_hop: Optional[BrunetAddress], hops: int,
                    encap: IpEncap) -> None:
        """Hand over a tunnelled IP packet that :func:`wire.frame_view`
        decoded from an arrived frame: the bookkeeping of
        :meth:`_on_datagram` + :meth:`route` + :meth:`_deliver` without a
        ``RoutedPacket``, a via list or a second parse."""
        if previous_hop is not None:
            heard = self.table.get(previous_hop)
            if heard is not None:
                heard.heard_from(self.sim.now)
                heard.packets_received += 1
        self.stats["delivered"] += 1
        self._m_delivered.value += 1
        self._m_hops.observe(hops)
        self.ip_handler(encap)

    # ------------------------------------------------------------------
    # keep-alive (§IV-B)
    # ------------------------------------------------------------------
    def _ping_tick(self) -> None:
        if not self.active:
            return
        now = self.sim.now
        cfg = self.config
        for conn in self.table.all():
            if conn.unanswered_pings > cfg.ping_retries:
                self.drop_connection(conn, reason="ping-timeout")
                continue
            if now - conn.last_heard >= cfg.ping_interval:
                token = self.next_token()
                conn.unanswered_pings += 1
                if self.transport.carries_frames:
                    self.transport.send_frame(
                        conn.remote_endpoint,
                        wire.ping_frame(token, self._addr_bytes))
                else:
                    self.send_direct(conn.remote_endpoint,
                                     PingRequest(token, self.addr),
                                     cfg.size_ping)
        self._ping_timer = self.sim.schedule(cfg.ping_interval / 2,
                                             self._ping_tick)

    def _handle_ping_request(self, token: int, sender: BrunetAddress,
                             src: Endpoint) -> None:
        conn = self.table.get(sender)
        if conn is not None:
            conn.heard_from(self.sim.now)
            conn.remote_endpoint = src  # tracks NAT re-mappings (§V-E)
        known = conn is not None
        if self.transport.carries_frames:
            self.transport.send_frame(src, wire.ping_reply_frame(
                token, self._addr_bytes, src, known))
        else:
            self.send_direct(src, PingReply(token, self.addr,
                                            Uri("udp", src), known=known),
                             self.config.size_ping)

    def _handle_ping_reply(self, token: int, sender: BrunetAddress,
                           observed_uri: Uri, known: bool,
                           src: Endpoint) -> None:
        if self.uris.learn(observed_uri):
            self.trace("uri.learned", uri=str(observed_uri))
        conn = self.table.get(sender)
        if conn is None:
            return
        if not known:
            # the peer answers but holds no state for us: it restarted (or
            # its close-notify was lost).  Drop the zombie link so the
            # overlords' repair re-establishes it.
            self.drop_connection(conn, reason="peer-forgot")
            return
        conn.heard_from(self.sim.now)
        conn.remote_endpoint = src

    def drop_connection(self, conn: Connection, reason: str,
                        notify: bool = False) -> None:
        """Discard connection state ("any unresponded ping message is
        perceived as the node going down", §IV-B).  ``notify`` sends a
        graceful close so the peer drops its state immediately instead of
        waiting out the keep-alive timeout."""
        self.trace("conn.drop", peer=conn.peer_addr, reason=reason,
                   conn_type=conn.conn_type.value)
        if notify:
            self.send_direct(conn.remote_endpoint,
                             CloseMessage(self.addr, reason),
                             self.config.size_ping)
        self.table.remove(conn.peer_addr)

    # ------------------------------------------------------------------
    # IPOP hooks
    # ------------------------------------------------------------------
    def inspect_traffic(self, dest_addr: BrunetAddress,
                        packets: int = 1) -> None:
        """Feed outbound virtual-IP traffic into the shortcut score queue."""
        if self.active and self.overlords:
            self.shortcut_overlord.observe(dest_addr, packets)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _overlords_by_age(self) -> tuple:
        """The live overlords in construction order (shortcut first), the
        order they hear of connection changes; none once stopped."""
        if not self.active:
            return ()
        leaf, near, far, shortcut = self.overlords
        return shortcut, leaf, near, far

    def _connection_added(self, conn: Connection) -> None:
        self.trace("conn.add", peer=conn.peer_addr,
                   conn_type=conn.conn_type.value,
                   ep=str(conn.remote_endpoint))
        if (self.joined_at is None
                and ConnectionType.STRUCTURED_NEAR in conn.types):
            self.joined_at = self.sim.now
        for o in self._overlords_by_age():
            o.connection_added(conn)
        for cb in list(self.on_connection):
            cb(conn)

    def _connection_removed(self, conn: Connection) -> None:
        self.peer_uris.pop(conn.peer_addr, None)
        for o in self._overlords_by_age():
            o.connection_removed(conn)
        for cb in list(self.on_disconnection):
            cb(conn)

    def trace(self, category: str, **data: Any) -> None:
        """Record a node-stamped trace event.

        Fans in to the flight recorder (when one is enabled) and the sim
        tracer; with the tracer disabled only its exact counters are
        touched, so category counts survive big untraced sweeps."""
        sim = self.sim
        recorder = sim.obs.recorder
        if recorder is not None:
            recorder.record(sim.now, self.name, category, data)
        tracer = sim.tracer
        if tracer.enabled:
            data["node"] = self.name
            tracer.record(sim.now, category, data)
        else:
            tracer.counters[category] += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BrunetNode {self.name} {self.addr!r} conns={len(self.table)}>"
