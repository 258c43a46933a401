"""The linking handshake (§IV-B) — and, implicitly, NAT hole punching.

An initiator works through the target's URI list one endpoint at a time,
resending unanswered link requests with exponential back-off; only after
``link_max_retries`` sends does it abandon a URI and move to the next.  With
the paper's conservative constants that is ~155 s per dead URI — exactly the
delay that shows up in Fig. 4's UFL-UFL curve, where the first (NAT-public)
URI is dead because the UFL NAT drops hairpin traffic.

Because *both* peers initiate linking after a CTM exchange, their link
requests punch holes in both NATs ("the bi-directionality of the
connection/linking protocols is what enables the NAT hole-punching technique
to succeed", §IV-D).  Simultaneous attempts race; the race is broken with a
link-error message.  The paper has both sides abort and retry after a
jittered exponential back-off; here the higher address keeps its attempt
and the lower one yields, which converges in one exchange and draws no RNG.
An answer acts only on the attempt that asked its sender (DESIGN.md §3.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.brunet.address import BrunetAddress
from repro.brunet.config import LINK_BACKOFF_FACTOR
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.messages import (
    LinkError,
    LinkReply,
    LinkRequest,
)
from repro.brunet.uri import Uri
from repro.obs.spans import TraceRef
from repro.phys.endpoints import Endpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode

SuccessCb = Callable[[Connection], None]
FailCb = Callable[[], None]


class LinkAttempt:
    """State of one in-progress linking handshake (initiator side)."""

    __slots__ = ("token", "target_addr", "uris", "conn_type", "uri_index",
                 "sends_on_uri", "interval", "timer", "on_success", "on_fail",
                 "started_at", "race_aborts", "trace_id", "span")

    def __init__(self, token: int, target_addr: Optional[BrunetAddress],
                 uris: list[Uri], conn_type: ConnectionType, started_at: float,
                 base_interval: float):
        self.token = token
        self.target_addr = target_addr
        self.uris = uris
        self.conn_type = conn_type
        self.uri_index = 0
        self.sends_on_uri = 0
        self.interval = base_interval
        self.timer = None
        self.on_success: list[SuccessCb] = []
        self.on_fail: list[FailCb] = []
        self.started_at = started_at
        self.race_aborts = 0
        # causal-trace anchors (None unless the handshake is traced)
        self.trace_id: Optional[int] = None
        self.span = None

    @property
    def current_uri(self) -> Optional[Uri]:
        if self.uri_index < len(self.uris):
            return self.uris[self.uri_index]
        return None


class Linker:
    """Manages all link attempts of one node and handles link messages."""

    def __init__(self, node: "BrunetNode"):
        self.node = node
        self.by_token: dict[int, LinkAttempt] = {}
        self.by_addr: dict[BrunetAddress, LinkAttempt] = {}
        self.failures = 0
        self.successes = 0
        metrics = node.sim.obs.metrics
        self._m_attempts = metrics.counter("linking.attempts",
                                           node=node.name)
        self._m_successes = metrics.counter("linking.successes",
                                            node=node.name)
        self._m_failures = metrics.counter("linking.failures",
                                           node=node.name)
        self._m_duration = metrics.histogram("linking.duration_s",
                                             node=node.name)
        self._m_unsolicited = metrics.counter("brunet.link.unsolicited",
                                              node=node.name)

    # -- public API --------------------------------------------------------
    def start(self, target_addr: Optional[BrunetAddress], uris: list[Uri],
              conn_type: ConnectionType,
              on_success: Optional[SuccessCb] = None,
              on_fail: Optional[FailCb] = None,
              trace: Optional[TraceRef] = None) -> Optional[LinkAttempt]:
        """Begin (or piggyback on) a linking attempt.

        Returns None when a connection already exists (``on_success`` is
        invoked immediately with it).
        """
        node = self.node
        if target_addr is not None:
            existing = node.table.get(target_addr)
            if existing is not None:
                if conn_type not in existing.types:
                    # link already up: just take on the extra role
                    existing = node.table.add(Connection(
                        target_addr, existing.remote_endpoint, conn_type,
                        node.sim.now))
                if on_success is not None:
                    on_success(existing)
                return None
            running = self.by_addr.get(target_addr)
            if running is not None:
                if on_success is not None:
                    running.on_success.append(on_success)
                if on_fail is not None:
                    running.on_fail.append(on_fail)
                return running
        if not uris:
            if on_fail is not None:
                on_fail()
            return None
        attempt = LinkAttempt(node.next_token(), target_addr, list(uris),
                              conn_type, node.sim.now,
                              node.config.link_resend_interval)
        self._m_attempts.inc()
        spans = node.sim.obs.spans
        if trace is not None and spans.enabled:
            # snapshot the ref *now* — it keeps re-parenting as the trace
            # continues elsewhere, while this attempt anchors here
            attempt.trace_id = trace.trace_id
            attempt.span = spans.start(
                "link.attempt", node=node.name, t=node.sim.now,
                trace_id=trace.trace_id, parent=trace.parent,
                target=str(target_addr), conn_type=conn_type.value,
                uris=len(uris))
        if on_success is not None:
            attempt.on_success.append(on_success)
        if on_fail is not None:
            attempt.on_fail.append(on_fail)
        self.by_token[attempt.token] = attempt
        if target_addr is not None:
            self.by_addr[target_addr] = attempt
        self._send_request(attempt)
        return attempt

    def snapshot(self) -> list[dict]:
        """JSON-ready view of every in-flight attempt — the control
        socket's ``links`` command reports these beside the established
        connections, so an operator can tell "repair in progress" from
        "wedged" without attaching a debugger."""
        now = self.node.sim.now
        out = []
        for attempt in self.by_token.values():
            out.append({
                "token": attempt.token,
                "target": (attempt.target_addr.hex()
                           if attempt.target_addr is not None else None),
                "conn_type": attempt.conn_type.value,
                "uri": (str(attempt.current_uri)
                        if attempt.current_uri is not None else None),
                "uri_index": attempt.uri_index,
                "uris": len(attempt.uris),
                "sends_on_uri": attempt.sends_on_uri,
                "interval": attempt.interval,
                "elapsed": now - attempt.started_at,
                "race_aborts": attempt.race_aborts,
            })
        out.sort(key=lambda a: a["token"])
        return out

    def cancel_all(self) -> None:
        """Abort every in-flight attempt (node shutdown)."""
        for attempt in list(self.by_token.values()):
            self._deregister(attempt)
            # a traced attempt must not leave its span dangling open —
            # post-hoc span-tree reconstruction treats never-closed
            # non-root spans as leaks
            self._end_attempt_span(attempt, "cancelled")

    # -- send/retry machinery ------------------------------------------------
    def _send_request(self, attempt: LinkAttempt) -> None:
        uri = attempt.current_uri
        if uri is None:  # pragma: no cover - guarded by callers
            self._fail(attempt)
            return
        node = self.node
        msg = LinkRequest(attempt.token, node.addr,
                          node.uris.advertised(), attempt.conn_type.value)
        if attempt.span is not None:
            sid = node.sim.obs.spans.event(
                "link.send", node=node.name, t=node.sim.now,
                trace_id=attempt.trace_id, parent=attempt.span,
                uri=str(uri), send=attempt.sends_on_uri + 1,
                interval=attempt.interval)
            # the request datagram's transit span parents at this send
            msg.trace = TraceRef(attempt.trace_id, sid)
        node.send_direct(uri.endpoint, msg, node.config.size_link)
        attempt.sends_on_uri += 1
        attempt.timer = node.sim.schedule(attempt.interval,
                                          self._on_timeout, attempt)

    def _on_timeout(self, attempt: LinkAttempt) -> None:
        if attempt.token not in self.by_token or not self.node.active:
            return
        cfg = self.node.config
        if attempt.sends_on_uri >= cfg.link_max_retries:
            # give up on this URI, move to the next
            attempt.uri_index += 1
            attempt.sends_on_uri = 0
            attempt.interval = cfg.link_resend_interval
            if attempt.current_uri is None:
                self._fail(attempt)
                return
            if attempt.span is not None:
                self.node.sim.obs.spans.event(
                    "link.uri_advance", node=self.node.name,
                    t=self.node.sim.now, trace_id=attempt.trace_id,
                    parent=attempt.span, uri=str(attempt.current_uri))
            self.node.trace("link.uri_advance",
                            target=attempt.target_addr,
                            uri=str(attempt.current_uri))
        else:
            attempt.interval *= LINK_BACKOFF_FACTOR
        self._send_request(attempt)

    def _deregister(self, attempt: LinkAttempt) -> None:
        if attempt.timer is not None:
            attempt.timer.cancel()
            attempt.timer = None
        self.by_token.pop(attempt.token, None)
        if attempt.target_addr is not None and \
                self.by_addr.get(attempt.target_addr) is attempt:
            self.by_addr.pop(attempt.target_addr)

    def _fail(self, attempt: LinkAttempt) -> None:
        self._deregister(attempt)
        self.failures += 1
        self._m_failures.inc()
        elapsed = self.node.sim.now - attempt.started_at
        self._m_duration.observe(elapsed)
        self._end_attempt_span(attempt, "fail")
        self.node.trace("link.fail", target=attempt.target_addr,
                        elapsed=elapsed)
        for cb in attempt.on_fail:
            cb()

    def _complete(self, attempt: LinkAttempt, conn: Connection) -> None:
        self._deregister(attempt)
        self.successes += 1
        self._m_successes.inc()
        elapsed = self.node.sim.now - attempt.started_at
        self._m_duration.observe(elapsed)
        self._end_attempt_span(attempt, "ok")
        self.node.trace("link.success", target=conn.peer_addr,
                        elapsed=elapsed,
                        conn_type=conn.conn_type.value)
        for cb in attempt.on_success:
            cb(conn)

    def _end_attempt_span(self, attempt: LinkAttempt, status: str) -> None:
        if attempt.span is None:
            return
        spans = self.node.sim.obs.spans
        spans.end(attempt.span, self.node.sim.now, status=status)
        # extend the owning trace's reconstruction window: a ctm.handshake
        # trace is "done" when its slowest link attempt settles
        spans.end_trace(attempt.trace_id, self.node.sim.now)
        attempt.span = None

    # -- message handlers -----------------------------------------------------
    def handle_request(self, msg: LinkRequest, src: Endpoint) -> None:
        """Target side: accept, re-ack, or race-reject a link request."""
        node = self.node
        sender = msg.sender_addr
        if sender == node.addr:
            return  # self-link is meaningless
        conn_type = ConnectionType(msg.conn_type)
        existing = node.table.get(sender)
        callbacks: tuple[list, list] = ([], [])
        if existing is None:
            racing = self.by_addr.get(sender)
            if racing is not None:
                # the higher address keeps its attempt, the lower yields
                if int(node.addr) > int(sender):
                    reply = LinkError(msg.token, node.addr)
                    node.send_direct(src, reply, node.config.size_link)
                    # the peer's request proves a return path exists (its
                    # NAT hole is punched): retry right away at the observed
                    # endpoint instead of waiting out the back-off timer
                    observed = Uri("udp", src)
                    if racing.current_uri != observed:
                        racing.uris.insert(racing.uri_index, observed)
                        racing.sends_on_uri = 0
                    if racing.timer is not None:
                        racing.timer.cancel()
                    racing.interval = node.config.link_resend_interval
                    self._send_request(racing)
                    return
                # yield: abandon my attempt, accept theirs; my attempt's
                # callbacks fire when the connection lands below.
                callbacks = (racing.on_success, racing.on_fail)
                self._deregister(racing)
        conn = node.table.add(Connection(sender, src, conn_type,
                                         node.sim.now))
        for cb in callbacks[0]:
            cb(conn)
        reply = LinkReply(msg.token, node.addr, node.uris.advertised(),
                          Uri("udp", src), conn_type.value)
        node.send_direct(src, reply, node.config.size_link)
        # remember the peer's freshest URI list for repairs
        node.peer_uris[sender] = list(msg.sender_uris)

    def _asked(self, token: int, *targets) -> Optional[LinkAttempt]:
        """The live attempt ``token`` names, if its target is one of
        ``targets``; otherwise None, counted as unsolicited."""
        attempt = self.by_token.get(token)
        if attempt is None or attempt.target_addr not in targets:
            self._m_unsolicited.inc()
            return None
        return attempt

    def handle_reply(self, msg: LinkReply, src: Endpoint) -> None:
        """Initiator side: complete the attempt that asked this sender (or
        asked no one in particular: a bootstrap URI)."""
        attempt = self._asked(msg.token, msg.sender_addr, None)
        if attempt is None:
            return
        node = self.node
        if node.uris.learn(msg.observed_uri):
            node.trace("uri.learned", uri=str(msg.observed_uri))
        conn = node.table.add(Connection(msg.sender_addr, src,
                                         attempt.conn_type, node.sim.now))
        node.peer_uris[msg.sender_addr] = list(msg.sender_uris)
        self._complete(attempt, conn)

    def handle_error(self, msg: LinkError, src: Endpoint) -> None:
        """Race loss: abandon the attempt its target names; re-check later."""
        node = self.node
        attempt = self._asked(msg.token, msg.sender_addr)
        if attempt is None:
            return
        attempt.race_aborts += 1
        callbacks = (list(attempt.on_success), list(attempt.on_fail))
        self._deregister(attempt)
        node.trace("link.race_abort", target=msg.sender_addr)
        target = msg.sender_addr
        uris = attempt.uris

        def recheck() -> None:
            if not node.active:
                return
            # hand the saved callbacks to start(): it invokes them on every
            # terminal path, including "URI list now empty" (start returns
            # None there — extending callbacks on the returned attempt
            # would silently drop them and hang waiters forever)
            relay_ok = ((lambda conn: [cb(conn) for cb in callbacks[0]])
                        if callbacks[0] else None)
            relay_fail = ((lambda: [cb() for cb in callbacks[1]])
                          if callbacks[1] else None)
            again = self.start(target, node.peer_uris.get(target, uris),
                               attempt.conn_type,
                               on_success=relay_ok, on_fail=relay_fail)
            if again is not None:
                again.race_aborts = attempt.race_aborts

        # the peer proceeds; re-check later in case its attempt dies
        node.sim.schedule(node.config.link_resend_interval * 4, recheck)
