"""Connection overlords (§IV).

"For each connection type, each P2P node has a connection overlord which
ensures the node has the right number of connections."  Four overlords:

* **Leaf** — bootstrap: keep one direct link to a configured seed node.
* **Near** — ring membership: announce (CTM-to-self via the leaf target) to
  find and hold both ring neighbours; re-announce at once on neighbour
  loss, and otherwise after a wait that doubles (30 s up to 240 s) while
  the neighbours stay as announced.
* **Far** — k Kleinberg-distributed long-range links for O(log²n/k) routing.
* **Shortcut** — the paper's §IV-E contribution: a per-destination score
  queue ``s(i+1) = max(s(i) + a(i) − c, 0)`` driven by traffic inspection;
  scores above a threshold trigger decentralized single-hop link creation.

All four are deadline-driven (DESIGN.md §3.3): each holds one timer, for
the earliest instant at which its ``tick`` could do anything, and none
while only an event can give it work — a settled node holds one overlord
timer, the near overlord's backed-off re-announce.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.brunet.address import (
    BrunetAddress,
    directed_distance,
    kleinberg_far_target,
)
from repro.brunet.connection import Connection, ConnectionType

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode


class Overlord:
    """Base: runs ``tick`` at the first grid instant at or after
    ``_due()`` — the earliest instant at which ``tick`` could do anything
    given the current state (one in the past: the next grid instant), or
    ``None`` when only an event can give it work and no timer is held.

    The grid is anchored at :meth:`start` and walked a step at a time
    (``t + interval``) because no closed form reproduces the rounding of
    chained additions: a tick lands on exactly the instant an unbroken
    periodic chain reaches, whatever armed it."""

    #: the ``BrunetConfig`` field holding the grid spacing
    INTERVAL = "overlord_interval"

    def __init__(self, node: "BrunetNode"):
        self.node = node
        self._timer = None
        self._stopped = False
        #: the latest tick-grid instant known to be behind us
        self._grid = 0.0
        #: the grid instant the one timer is armed for (None: unarmed)
        self._armed_at: Optional[float] = None

    def start(self) -> None:
        """Anchor the tick grid at now; the first tick runs immediately."""
        self._grid = self.node.sim.now
        self.kick()

    def stop(self) -> None:
        """Cancel the armed tick (node shutdown)."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()

    def connection_added(self, conn: Connection) -> None:
        """The node gained a connection, or labels on one (called by the
        node while it runs): a deadline can have moved earlier."""
        self._wake()

    def connection_removed(self, conn: Connection) -> None:
        """The node lost a connection: a deadline can have moved earlier."""
        self._wake()

    @property
    def timer_pending(self) -> bool:
        """True when a tick really is scheduled (what ``_armed_at`` claims)."""
        return self._timer is not None and self._timer.pending

    def _wake(self) -> None:
        """State changed: arm a tick for the first grid instant, from now
        on, at or after ``_due()``; one armed for a deadline that moved
        later since is left alone (it runs as a no-op and re-arms)."""
        node = self.node
        due = None if self._stopped or not node.active else self._due()
        if due is None:
            return
        now = node.sim.now
        step = getattr(node.config, self.INTERVAL)
        at = self._grid
        while True:
            at += step
            if at < now:
                self._grid = at     # its tick, had one been due, has run
            elif at >= due:
                break
        if self._armed_at is not None and self._armed_at <= at:
            return
        self._armed_at = at
        if self._timer is not None:
            self._timer.cancel()
        self._timer = node.sim.schedule_at(at, self._fire,
                                           priority=self._order())

    def _order(self, deferred: bool = False) -> int:
        """Kernel priority, a periodic chain's order: after the instant's
        ordinary events, by ``node.overlords``; deferred work after all."""
        overlords = self.node.overlords
        return 1 + (len(overlords) if deferred else overlords.index(self))

    def _fire(self) -> None:
        """The armed tick: the grid has reached the instant it was for."""
        self._grid, self._armed_at, self._timer = self._armed_at, None, None
        self.kick()

    def kick(self) -> None:
        """Tick now, on the grid or off it; re-arm only if still due."""
        if not self._stopped and self.node.active:
            self.tick()
            self._wake()


class LeafConnectionOverlord(Overlord):
    """Keeps ≥1 leaf connection to a bootstrap node (§IV-C)."""

    def __init__(self, node: "BrunetNode"):
        super().__init__(node)
        self._seed_index = 0
        self._attempting = False
        self._m_attempts = node.sim.obs.metrics.counter(
            "overlord.leaf_attempts", node=node.name)

    def _due(self) -> Optional[float]:
        node = self.node
        stranded = (node.leaf_connection() is None and not self._attempting
                    and node.bootstrap_uris)
        return node.sim.now if stranded else None

    def tick(self) -> None:
        """Ensure a live leaf connection to some bootstrap seed."""
        node = self.node
        if self._due() is None:
            return
        seeds = node.bootstrap_uris
        uri = seeds[self._seed_index % len(seeds)]
        self._seed_index += 1
        self._attempting = True

        def on_done(*_args) -> None:
            self._attempting = False
            self._wake()

        self._m_attempts.inc()
        node.linker.start(None, [uri], ConnectionType.LEAF,
                          on_success=on_done, on_fail=on_done)


class NearConnectionOverlord(Overlord):
    """Finds the node's ring position and repairs it after failures.

    Besides the join-time announce, the overlord re-announces while in the
    ring: greedy routing only stays correct if every node is linked to its
    true ring neighbours, and a node that joined *between* two linked nodes
    can leave one side unaware (its announce fanned out to a stale
    neighbour).  The re-announce backs off Trickle-style: each announce
    that finds the ring neighbours as the previous one left them doubles
    the wait (``REANNOUNCE_INTERVAL`` up to ``REANNOUNCE_MAX``), and a
    neighbour set that differs from the announced one — or a lost near
    link, even if the same peer links again — waits the base interval.
    """

    ANNOUNCE_RETRY = 10.0
    REANNOUNCE_INTERVAL = 30.0
    REANNOUNCE_MAX = 240.0
    #: the rate limit: an announce this soon after the last is refused
    #: (a join or repair announce so refused stays owed)
    MIN_GAP = 1.0

    def __init__(self, node: "BrunetNode"):
        super().__init__(node)
        self._last_announce = -1e18
        self._m_announces = node.sim.obs.metrics.counter(
            "overlord.announces", node=node.name)
        #: ``table.version`` at the end of the last relabel pass
        self._relabeled_version = -1
        #: ring neighbours (sorted addresses) at the last relabel / announce
        self._near: tuple = ()
        self._announced_near: Optional[tuple] = None
        #: the in-ring re-announce wait while ``_near`` stays as announced
        self._backoff = self.REANNOUNCE_INTERVAL
        #: a join or repair announce was asked for and has not run yet
        self._owed = False

    def connection_added(self, conn: Connection) -> None:
        self._wake()
        # announce the moment the bootstrap leaf link lands, rather than
        # waiting for the next maintenance tick — join latency matters
        # (abstract: "90% of the nodes self-configured P2P routes within
        # 10 seconds")
        if ConnectionType.LEAF in conn.types and not self.node.in_ring:
            self._announce_soon()

    def connection_removed(self, conn: Connection) -> None:
        self._wake()
        # neighbour died: rediscover current nearest on both sides, and
        # back to the base wait even if the same peer links again
        if ConnectionType.STRUCTURED_NEAR in conn.types:
            self._announced_near = None
            self._announce_soon()

    def _announce_soon(self) -> None:
        """Announce at once — owed until some announce runs, so one the
        rate limit refuses is delayed to ``MIN_GAP`` after the last."""
        self._owed = True
        self.node.sim.schedule(0.0, self._announce_owed,
                               priority=self._order(deferred=True))

    def _announce_owed(self) -> None:
        if self._owed:
            self._maybe_announce()
            self._wake()        # refused: due ``MIN_GAP`` after the last

    def _maybe_announce(self) -> None:
        node = self.node
        if self._stopped or not node.active:
            return
        if node.leaf_connection() is None and not node.in_ring:
            return  # joining needs a leaf; in-ring repair does not
        if node.sim.now - self._last_announce < self.MIN_GAP:
            return
        self._owed = False
        self._backoff = (min(2.0 * self._backoff, self.REANNOUNCE_MAX)
                         if self._near == self._announced_near
                         else self.REANNOUNCE_INTERVAL)
        self._announced_near = self._near
        self._last_announce = node.sim.now
        self._m_announces.inc()
        node.announce()

    def _wait(self) -> float:
        """Seconds after the last announce that the next one is due."""
        if self._owed:
            return self.MIN_GAP
        if not self.node.in_ring:
            return self.ANNOUNCE_RETRY
        if self._near != self._announced_near:
            return self.REANNOUNCE_INTERVAL
        return self._backoff

    def _due(self) -> Optional[float]:
        node = self.node
        in_ring = node.in_ring
        if in_ring and node.table.version != self._relabeled_version:
            return node.sim.now
        if not in_ring and node.leaf_connection() is None:
            return None  # connection_added announces when a leaf lands
        # an ulp early: ``tick`` tests ``now - last >= wait``, a rounded
        # subtraction this sum can overshoot — and an early tick is a no-op
        return math.nextafter(self._last_announce + self._wait(), -math.inf)

    def tick(self) -> None:
        """Announce when not in the ring; relabel/re-announce when in."""
        node = self.node
        if node.in_ring:
            self._relabel_neighbors()
        if node.sim.now - self._last_announce >= self._wait():
            self._maybe_announce()

    def _relabel_neighbors(self) -> None:
        """Keep the near label on exactly the current ring neighbours.

        Stale near labels (from join-time fanout or departed in-between
        nodes) are trimmed; a connection left with no labels is closed
        gracefully so both sides release state promptly.

        The pass is a function of the table alone and idempotent, so it
        is skipped while ``table.version`` is what the last pass left.
        """
        node = self.node
        table = node.table
        if table.version == self._relabeled_version:
            return
        keep = set()
        for conn in (table.right_neighbor(), table.left_neighbor()):
            if conn is None:
                continue
            keep.add(conn.peer_addr)
            if ConnectionType.STRUCTURED_NEAR not in conn.types:
                conn.add_type(ConnectionType.STRUCTURED_NEAR)
        for conn in table.by_type(ConnectionType.STRUCTURED_NEAR):
            if conn.peer_addr in keep:
                continue
            if conn.types == {ConnectionType.STRUCTURED_NEAR}:
                node.drop_connection(conn, reason="near-trimmed",
                                     notify=True)
            else:
                conn.discard_type(ConnectionType.STRUCTURED_NEAR)
        self._near = tuple(sorted(keep))
        self._relabeled_version = table.version


class FarConnectionOverlord(Overlord):
    """Maintains k structured-far connections at Kleinberg distances."""

    PENDING_TTL = 30.0

    def __init__(self, node: "BrunetNode"):
        super().__init__(node)
        self._pending: list[float] = []  # expiry times of CTMs in flight
        self._m_ctms = node.sim.obs.metrics.counter(
            "overlord.far_ctms", node=node.name)

    def connection_added(self, conn: Connection) -> None:
        self._wake()
        # a far connection landed: release one in-flight slot so the next
        # tick sees the true deficit (a success used to count against
        # ``need`` until its 30 s TTL, leaving the node below far_count
        # after churn).  CTM targets are Kleinberg samples, not the peer
        # that answers, so slots cannot be matched by address — release
        # the oldest.
        if ConnectionType.STRUCTURED_FAR in conn.types and self._pending:
            self._pending.pop(0)

    def _due(self) -> Optional[float]:
        node = self.node
        if not node.in_ring:
            return None
        have = len(node.table.by_type(ConnectionType.STRUCTURED_FAR))
        if node.config.far_count - have - len(self._pending) > 0:
            return node.sim.now
        # a slot is pruned, and may free a CTM, once its expiry is reached
        return min(self._pending, default=None)

    def tick(self) -> None:
        """Top up structured-far links toward the configured k."""
        node = self.node
        if not node.in_ring:
            return
        now = node.sim.now
        self._pending = [t for t in self._pending if t > now]
        have = len(node.table.by_type(ConnectionType.STRUCTURED_FAR))
        need = node.config.far_count - have - len(self._pending)
        if need <= 0:
            return
        # local network-size estimate from ring-neighbour spacing
        # (Symphony-style): don't sample inside my own arc
        spacing = 2
        right = node.table.right_neighbor()
        if right is not None:
            spacing = max(spacing,
                          directed_distance(int(node.addr),
                                            int(right.peer_addr)))
        # the registry caches the stream by name: fetched at the first
        # draw, so a node that never tops up builds no generator
        rng = node.sim.rng.scalars(f"brunet.far.{node.name}")
        for _ in range(need):
            target = kleinberg_far_target(int(node.addr), rng,
                                          min_distance=spacing)
            self._m_ctms.inc()
            node.connect_to(target, ConnectionType.STRUCTURED_FAR)
            self._pending.append(now + self.PENDING_TTL)


class ShortcutConnectionOverlord(Overlord):
    """Traffic-driven single-hop link creation (§IV-E).

    ``observe`` is called by the IPOP layer for every outbound tunnelled
    packet; each tick applies the queueing recurrence and connects to
    destinations whose backlog exceeds the threshold.

    It is due only while :meth:`_has_work`: ``observe`` — or, for
    idle-drop, a SHORTCUT connection landing — arms it, and the recurrence
    sees the arrivals, at the instants, a 1 Hz chain would have seen.
    """

    INTERVAL = "shortcut_tick"
    #: service rate c of the score queue, packets per second
    SERVICE_RATE = 0.4
    #: the score at which a destination gets a shortcut link
    THRESHOLD = 14.0

    def __init__(self, node: "BrunetNode"):
        super().__init__(node)
        self.scores: dict[BrunetAddress, float] = {}
        self.arrivals: dict[BrunetAddress, int] = {}
        self._pending: dict[BrunetAddress, float] = {}
        self._last_nonzero: dict[BrunetAddress, float] = {}
        cfg = node.config
        self._pending_ttl = 2.0 * cfg.uri_give_up_time() + 30.0
        metrics = node.sim.obs.metrics
        self._m_ctms = metrics.counter("overlord.shortcut_ctms",
                                       node=node.name)
        self._m_evictions = metrics.counter("overlord.shortcut_evictions",
                                            node=node.name)

    @property
    def enabled(self) -> bool:
        """Mirrors ``BrunetConfig.shortcuts_enabled``."""
        return self.node.config.shortcuts_enabled

    def connection_added(self, conn: Connection) -> None:
        self._wake()
        self._pending.pop(conn.peer_addr, None)

    def observe(self, dest: BrunetAddress, packets: int = 1) -> None:
        """Record outbound IP traffic toward ``dest`` (a(i) arrivals)."""
        if not self.node.config.shortcuts_enabled or dest == self.node.addr:
            return
        self.arrivals[dest] = self.arrivals.get(dest, 0) + packets
        if self._armed_at is None:
            self._wake()

    def _due(self) -> Optional[float]:
        return self.node.sim.now if self._has_work() else None

    def _has_work(self) -> bool:
        """True while a tick would find something to decay, prune or
        drop: a score, an arrival, a pending slot or — only with
        ``shortcut_idle_drop`` on — a SHORTCUT-labelled connection."""
        if not self.enabled:
            return False
        if self.scores or self.arrivals or self._pending:
            return True
        node = self.node
        return (node.config.shortcut_idle_drop > 0
                and bool(node.table.by_type(ConnectionType.SHORTCUT)))

    def score_of(self, dest: BrunetAddress) -> float:
        """Current backlog score s(i) for ``dest``."""
        return self.scores.get(dest, 0.0)

    def tick(self) -> None:
        """Apply s ← max(s + a − c, 0) and connect above the threshold."""
        if not self.enabled:
            return
        node = self.node
        cfg = node.config
        now = node.sim.now
        # expired pending slots must be pruned here: they are only popped
        # on connection success, so a failed attempt toward a dest that
        # went cold would otherwise pin its slot forever
        if self._pending:
            self._pending = {d: t for d, t in self._pending.items()
                             if t > now}
        c = self.SERVICE_RATE * cfg.shortcut_tick
        for dest in set(self.scores) | set(self.arrivals):
            a = self.arrivals.pop(dest, 0)
            s = max(self.scores.get(dest, 0.0) + a - c, 0.0)
            if s <= 0.0:
                # garbage-collect long-idle entries
                if now - self._last_nonzero.get(dest, now) > 60.0:
                    self.scores.pop(dest, None)
                    self._last_nonzero.pop(dest, None)
                else:
                    self.scores[dest] = 0.0
                    self._last_nonzero.setdefault(dest, now)
                continue
            self.scores[dest] = s
            self._last_nonzero[dest] = now
            if s >= self.THRESHOLD:
                self._maybe_connect(dest, s)
        self._drop_idle()

    def _maybe_connect(self, dest: BrunetAddress, score: float) -> None:
        node = self.node
        now = node.sim.now
        if node.table.get(dest) is not None:
            return  # already single-hop
        pending_until = self._pending.get(dest, 0.0)
        if pending_until > now:
            return
        shortcuts = node.table.by_type(ConnectionType.SHORTCUT)
        if len(shortcuts) >= node.config.shortcut_max:
            victim = min(shortcuts, key=lambda c: (self.score_of(c.peer_addr),
                                                   int(c.peer_addr)))
            if self.score_of(victim.peer_addr) >= score:
                return
            self._m_evictions.inc()
            self._release_shortcut(victim, reason="shortcut-evicted")
        self._pending[dest] = now + self._pending_ttl
        node.trace("shortcut.initiate", dest=dest, score=score)
        self._m_ctms.inc()
        node.connect_to(dest, ConnectionType.SHORTCUT)

    def _drop_idle(self) -> None:
        idle_limit = self.node.config.shortcut_idle_drop
        if idle_limit <= 0:
            return
        now = self.node.sim.now
        for conn in self.node.table.by_type(ConnectionType.SHORTCUT):
            last = self._last_nonzero.get(conn.peer_addr, conn.established_at)
            if now - last > idle_limit:
                self._release_shortcut(conn, reason="shortcut-idle")

    def _release_shortcut(self, conn: Connection, reason: str) -> None:
        """Give up the SHORTCUT role on ``conn``.

        Connections carry a *set* of type labels (``connection.py``): the
        shortcut target may simultaneously be a ring neighbour or a far
        link.  Closing the physical link in that case would sever a
        NEAR/FAR connection the other overlords still depend on — only a
        link whose sole remaining role is SHORTCUT may be closed.
        """
        if conn.types == {ConnectionType.SHORTCUT}:
            self.node.drop_connection(conn, reason=reason, notify=True)
        else:
            conn.discard_type(ConnectionType.SHORTCUT)
            # the node reports no label change to its overlords, but it moves
            # the table version the near overlord's relabel pass watches
            for overlord in self.node.overlords:
                overlord._wake()
