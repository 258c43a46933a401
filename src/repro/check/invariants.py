"""Machine-checkable overlay invariants.

The paper's "self-organizing" claim rests on properties it never states
formally; Brunet's authors later pinned them down for Symphony-style rings
("A Symphony Conducted by Brunet") and IPOP's IP→P2P mapping silently
depends on them.  This module states each invariant as a pure function
over live :class:`~repro.brunet.node.BrunetNode` objects returning
structured :class:`Violation` records:

* **ring consistency** (:func:`check_ring`) — every node is in the ring
  and its nearest structured peers are its true ring successor and
  predecessor (:func:`ring_verdict`, over census records, so the same
  function judges a simulation and a live swarm), every STRUCTURED_NEAR
  label points at a genuine nearest neighbour, no structured link points
  at a dead node, and the structured-connection graph is not partitioned;
* **connection symmetry** (:func:`check_symmetry`) — A's table lists B
  with compatible type labels iff B's lists A, modulo a grace window for
  in-flight linking handshakes;
* **routing convergence** (:func:`check_routing`) — greedy ``next_hop``
  chains terminate at the address owner with a strictly decreasing ring
  metric;
* **cache coherence** (:func:`check_cache`) — every memoized
  ``next_hop_cache`` entry equals a fresh ``_next_hop_scan``;
* **resource leaks** (:func:`check_leaks`) — no stuck linking attempts,
  orphaned overlord ``_pending`` slots, desynchronized NAT mapping
  indices, or dangling trace spans.

Some invariants only hold at *quiescence*: mid-churn the ring is broken
by definition and repairs take tens of seconds.  Those findings are
marked ``gated=True`` — the :class:`~repro.check.auditor.Auditor` only
reports them when the same finding persists across a grace window, so a
healthy self-repairing overlay audits clean while a genuinely wedged one
does not.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.brunet.address import ring_distance
from repro.brunet.connection import ConnectionType
from repro.brunet.routing import _next_hop_scan, next_hop

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode
    from repro.obs.spans import SpanCollector
    from repro.phys.network import Internet


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation (or violation candidate, when gated)."""

    #: simulation time the finding was (first) observed
    t: float
    #: invariant class: ring | symmetry | routing | cache | leak | span
    check: str
    #: specific finding, e.g. ``ring.neighbor-missing``
    kind: str
    #: node the finding is anchored at ("" for overlay-global findings)
    node: str
    #: stable identity — the auditor's persistence gating and dedup key
    key: str
    #: human-readable specifics
    detail: str
    #: True when the finding is only a violation if it *persists*
    #: (convergence-dependent); False when it is wrong at any instant
    gated: bool = False

    def to_row(self) -> dict:
        return {"t": self.t, "check": self.check, "kind": self.kind,
                "node": self.node, "key": self.key, "detail": self.detail}


def _live(nodes: Iterable["BrunetNode"]) -> list["BrunetNode"]:
    return sorted((n for n in nodes if n.active), key=lambda n: int(n.addr))


def _stride_sample(live: list, budget: Optional[int]) -> list:
    """Deterministic bounded subsample: every ceil(n/budget)-th element
    of the address-sorted list (the whole list when ``budget`` is None or
    already covers it).  No RNG — the sampled set is identical across
    same-seed runs and across sweeps, so persistence gating still sees a
    stable key set."""
    if budget is None or budget <= 0 or len(live) <= budget:
        return live
    stride = -(-len(live) // budget)
    return live[::stride]


# ---------------------------------------------------------------------------
# 1. ring consistency
# ---------------------------------------------------------------------------

def _link_in_flight(a: "BrunetNode", b: "BrunetNode") -> bool:
    return (a.linker.by_addr.get(b.addr) is not None
            or b.linker.by_addr.get(a.addr) is not None)


def ring_verdict(records: Iterable[dict], now: float = 0.0,
                 excuse: Optional[Callable[[int, int], bool]] = None
                 ) -> list[Violation]:
    """The one ring-neighbour verdict, over census records
    (:meth:`~repro.brunet.node.BrunetNode.census` in a simulation, a
    daemon's ``status`` live): a node is consistent when it is ``in_ring``
    and its ``right`` / ``left`` are its true successor / predecessor among
    ``records``.  Fewer than two records make no ring.

    ``excuse(i, j)``, with ``i`` and ``j`` indices into the address-sorted
    records, drops the finding of node ``i`` against its true neighbour
    ``j`` (a not-in-ring node is excused against either neighbour).
    """
    ring = sorted(records, key=lambda r: r["addr"])
    out: list[Violation] = []
    count = len(ring)
    if count < 2:
        return out
    for i, rec in enumerate(ring):
        name = rec["name"]
        sides = (("right", (i + 1) % count), ("left", (i - 1) % count))
        if not rec["in_ring"]:
            if excuse is None or not any(excuse(i, j) for _, j in sides):
                out.append(Violation(
                    now, "ring", "ring.not-in-ring", name,
                    f"ring.not-in-ring:{name}",
                    f"{name} is not in the ring", gated=True))
            continue
        for side, j in sides:
            true = ring[j]
            if rec[side] != true["addr"] and (excuse is None
                                               or not excuse(i, j)):
                out.append(Violation(
                    now, "ring", "ring.neighbor-missing", name,
                    f"ring.neighbor-missing:{name}:{side}",
                    f"{name}'s {side} neighbour is {str(rec[side])[:12]}, "
                    f"not its true {side} neighbour {true['name']} "
                    f"({true['addr'][:12]})", gated=True))
    return out


def _ring_repairing(node: "BrunetNode", live: list["BrunetNode"],
                    i: int) -> bool:
    """True while ``node`` has a linking handshake in flight (either
    direction) with one of its true ring neighbours.

    While that repair runs, the node's ring state is in legal transition
    — its NEAR labels still describe the *pre-join* neighbourhood, and
    peers that rank it as their best-known neighbour keep linking to it.
    A dead first URI costs ~155 s of handshake by design (the paper's
    NAT-hairpin case), longer than the audit grace, so "repairing" must
    be distinguished from "wedged" by the in-flight attempt, not by time.
    """
    count = len(live)
    for k in (1, count - 1):
        nb = live[(i + k) % count]
        if nb is not node and _link_in_flight(node, nb):
            return True
    return False


def check_ring(nodes: Iterable["BrunetNode"], now: float,
               budget: Optional[int] = None) -> list[Violation]:
    """The structured-near connections must form the true sorted-address
    ring: :func:`ring_verdict` over the live nodes' census records, NEAR
    labels only on genuine nearest neighbours, no links to dead nodes, no
    partitions.

    A neighbour or stale-label finding is skipped while a linking
    handshake with the true neighbour is in flight on either side — the
    same exemption :func:`check_symmetry` applies — so slow NAT traversal
    reads as repair in progress, not as a violation.

    ``budget`` bounds the sweep for big rings: only a deterministic
    stride sample of ``budget`` nodes is examined per call (they are
    still graded against their *true* neighbours among all live nodes),
    and the partition BFS abstains once it has traversed ``50 * budget``
    edges.
    """
    live = _live(nodes)
    out: list[Violation] = []
    if len(live) < 2:
        return out
    count = len(live)
    addr_index = {n.addr: i for i, n in enumerate(live)}
    repairing = [_ring_repairing(n, live, i) for i, n in enumerate(live)]
    examine = _stride_sample(list(enumerate(live)), budget)
    examined = {i for i, _ in examine}
    out.extend(ring_verdict(
        [n.census() for n in live], now,
        excuse=lambda i, j: (i not in examined
                             or _link_in_flight(live[i], live[j]))))
    for i, node in examine:
        # NEAR labels must point at genuine nearest live neighbours
        per_side = node.config.near_per_side
        allowed = set()
        for k in range(1, per_side + 1):
            allowed.add(live[(i + k) % count].addr)
            allowed.add(live[(i - k) % count].addr)
        for conn in node.table.by_type(ConnectionType.STRUCTURED_NEAR):
            if conn.peer_addr not in allowed:
                peer_i = addr_index.get(conn.peer_addr)
                if repairing[i] or (peer_i is not None
                                    and repairing[peer_i]):
                    # either end of the label is mid-repair: the stale
                    # NEAR is the legal pre-join neighbourhood
                    continue
                where = ("dead node" if peer_i is None
                         else f"non-neighbour {conn.peer_addr!r}")
                out.append(Violation(
                    now, "ring", "ring.mislabeled", node.name,
                    f"ring.mislabeled:{node.name}:{conn.peer_addr.hex()}",
                    f"{node.name} labels {where} STRUCTURED_NEAR",
                    gated=True))
        for conn in node.table.all():
            if conn.structured and conn.peer_addr not in addr_index:
                out.append(Violation(
                    now, "ring", "ring.stale-peer", node.name,
                    f"ring.stale-peer:{node.name}:{conn.peer_addr.hex()}",
                    f"{node.name} holds a structured link to dead peer "
                    f"{conn.peer_addr!r}", gated=True))
    max_edges = None if budget is None else 50 * budget
    out.extend(_check_partition(live, now, max_edges=max_edges))
    return out


def _check_partition(live: list["BrunetNode"], now: float,
                     max_edges: Optional[int] = None) -> list[Violation]:
    """BFS over structured links: the overlay must be one component.
    With ``max_edges`` set the sweep abstains (reports nothing) once the
    traversal exceeds the edge budget — bounded work beats a partial
    answer misread as a partition."""
    addr_index = {n.addr: n for n in live}
    seen: set = set()
    stack = [live[0]]
    seen.add(live[0].addr)
    edges = 0
    while stack:
        node = stack.pop()
        for conn in node.table.structured():
            edges += 1
            if max_edges is not None and edges > max_edges:
                return []
            peer = addr_index.get(conn.peer_addr)
            if peer is not None and peer.addr not in seen:
                seen.add(peer.addr)
                stack.append(peer)
    if len(seen) == len(live):
        return []
    return [Violation(
        now, "ring", "ring.partition", "",
        "ring.partition",
        f"overlay partitioned: component of {len(seen)} reachable from "
        f"{live[0].name}, {len(live) - len(seen)} nodes unreachable",
        gated=True)]


# ---------------------------------------------------------------------------
# 2. connection symmetry
# ---------------------------------------------------------------------------

def check_symmetry(nodes: Iterable["BrunetNode"], now: float,
                   handshake_grace: float = 30.0,
                   budget: Optional[int] = None) -> list[Violation]:
    """A's table lists B with compatible labels iff B's table lists A.

    Connections younger than ``handshake_grace`` and pairs with an
    in-flight linking attempt on either side are skipped — linking is a
    two-message handshake, so one-sided state is legal while it runs.
    ``budget`` bounds the sweep to a deterministic stride sample of
    nodes (reverse lookups still hit the full live map).
    """
    live = _live(nodes)
    by_addr = {n.addr: n for n in live}
    out: list[Violation] = []
    for node in _stride_sample(live, budget):
        for conn in node.table.all():
            if not conn.types:
                out.append(Violation(
                    now, "symmetry", "symmetry.empty-labels", node.name,
                    f"symmetry.empty-labels:{node.name}:"
                    f"{conn.peer_addr.hex()}",
                    f"{node.name} holds a connection to "
                    f"{conn.peer_addr!r} with an empty label set"))
                continue
            peer = by_addr.get(conn.peer_addr)
            if peer is None:
                continue  # dead peers are ring.stale-peer territory
            if now - conn.established_at < handshake_grace:
                continue
            back = peer.table.get(node.addr)
            if back is None:
                if (peer.linker.by_addr.get(node.addr) is not None
                        or node.linker.by_addr.get(peer.addr) is not None):
                    continue  # handshake in flight
                out.append(Violation(
                    now, "symmetry", "symmetry.one-way", node.name,
                    f"symmetry.one-way:{node.name}:{peer.name}",
                    f"{node.name} lists {peer.name} "
                    f"({'+'.join(sorted(t.value for t in conn.types))}) "
                    f"but {peer.name} does not list {node.name} back",
                    gated=True))
            elif back.types and not (conn.types & back.types):
                out.append(Violation(
                    now, "symmetry", "symmetry.label-mismatch", node.name,
                    f"symmetry.label-mismatch:{node.name}:{peer.name}",
                    f"{node.name}→{peer.name} labels "
                    f"{sorted(t.value for t in conn.types)} share nothing "
                    f"with {sorted(t.value for t in back.types)}",
                    gated=True))
    return out


# ---------------------------------------------------------------------------
# 3. routing convergence
# ---------------------------------------------------------------------------

def sample_pairs(live: list["BrunetNode"],
                 max_pairs: int) -> list[tuple["BrunetNode", "BrunetNode"]]:
    """Deterministic (src, dest) sample: ring-stride pattern, no RNG, so
    the audited pair set is identical across same-seed runs."""
    n = len(live)
    if n < 2:
        return []
    strides = sorted({1, max(1, n // 3), max(1, n // 2), n - 1})
    pairs: list[tuple["BrunetNode", "BrunetNode"]] = []
    for stride in strides:
        for i in range(n):
            pairs.append((live[i], live[(i + stride) % n]))
            if len(pairs) >= max_pairs:
                return pairs
    return pairs


def check_routing(nodes: Iterable["BrunetNode"], now: float,
                  max_pairs: int = 64,
                  budget: Optional[int] = None) -> list[Violation]:
    """Greedy ``next_hop`` chains for sampled (src, dest) pairs terminate
    at the address owner, strictly decreasing the ring metric each hop.

    The metric decrease is an *instant* invariant (``next_hop`` only
    returns strictly closer peers, so an increase means corrupted state);
    termination at the owner is gated — mid-repair a chain legitimately
    dead-ends at a local minimum until the ring heals.
    """
    live = _live(nodes)
    by_addr = {n.addr: n for n in live}
    index = {n.addr: i for i, n in enumerate(live)}
    out: list[Violation] = []
    if budget is not None:
        max_pairs = min(max_pairs, budget)
    for src, owner in sample_pairs(live, max_pairs):
        dest = owner.addr
        pair_key = f"{src.name}->{owner.name}"
        current = src
        d_here = ring_distance(current.addr, dest)
        for _hop in range(src.config.ttl + 1):
            if current.addr == dest:
                break
            conn = next_hop(current.table, current.addr, dest)
            if conn is None:
                if _ring_repairing(current, live, index[current.addr]):
                    break  # local minimum while the ring link re-forms
                out.append(Violation(
                    now, "routing", "routing.non-convergent", current.name,
                    f"routing.non-convergent:{pair_key}",
                    f"chain {pair_key} dead-ends at {current.name}, "
                    f"{d_here} short of the owner", gated=True))
                break
            d_next = ring_distance(conn.peer_addr, dest)
            if d_next >= d_here:
                out.append(Violation(
                    now, "routing", "routing.metric-increase", current.name,
                    f"routing.metric-increase:{pair_key}:{current.name}",
                    f"hop {current.name}→{conn.peer_addr!r} does not "
                    f"decrease the metric ({d_here} → {d_next})"))
                break
            nxt = by_addr.get(conn.peer_addr)
            if nxt is None:
                out.append(Violation(
                    now, "routing", "routing.dead-hop", current.name,
                    f"routing.dead-hop:{pair_key}:{current.name}",
                    f"chain {pair_key} forwards into dead peer "
                    f"{conn.peer_addr!r} at {current.name}", gated=True))
                break
            current, d_here = nxt, d_next
        else:  # pragma: no cover - unreachable with a decreasing metric
            out.append(Violation(
                now, "routing", "routing.ttl-exhausted", src.name,
                f"routing.ttl-exhausted:{pair_key}",
                f"chain {pair_key} exceeded ttl", gated=True))
    return out


# ---------------------------------------------------------------------------
# 3b. next-hop cache coherence
# ---------------------------------------------------------------------------

def check_cache(nodes: Iterable["BrunetNode"], now: float,
                max_entries: int = 256,
                budget: Optional[int] = None) -> list[Violation]:
    """Every memoized ``next_hop_cache`` entry must equal a fresh
    ``_next_hop_scan`` — the table clears the cache on every version bump,
    so a divergent entry means an invalidation path was missed.
    ``max_entries`` caps re-verified entries per node; ``budget`` caps
    them across the whole sweep."""
    out: list[Violation] = []
    total = 0
    for node in _live(nodes):
        if budget is not None and total >= budget:
            break
        table = node.table
        for i, (key, cached) in enumerate(table.next_hop_cache.items()):
            if i >= max_entries:
                break
            if budget is not None and total >= budget:
                break
            total += 1
            fresh = _next_hop_scan(table, key[0], key[1], key[2], key[3])
            if fresh is not cached:
                out.append(Violation(
                    now, "cache", "cache.incoherent", node.name,
                    f"cache.incoherent:{node.name}:{key[1].hex()}:"
                    f"{key[2]}:{key[3]}",
                    f"{node.name} cache says "
                    f"{(cached.peer_addr if cached else None)!r} for dest "
                    f"{key[1]!r} but a fresh scan says "
                    f"{(fresh.peer_addr if fresh else None)!r}"))
    return out


# ---------------------------------------------------------------------------
# 4. resource leaks
# ---------------------------------------------------------------------------

def check_leaks(nodes: Iterable["BrunetNode"], now: float,
                internet: Optional["Internet"] = None,
                spans: Optional["SpanCollector"] = None,
                span_grace: float = 900.0) -> list[Violation]:
    """After quiescence no subsystem may hold unreleasable state: stuck
    linking attempts, expired overlord ``_pending`` slots, shortcut slots
    for already-connected peers, an overlord whose ``_due()`` names an
    instant but which holds no timer for it, desynchronized NAT mapping
    indices, or trace spans that can never close."""
    from repro.brunet.overlords import FarConnectionOverlord
    out: list[Violation] = []
    for node in nodes:
        linker = node.linker
        if not node.active:
            if linker.by_token or linker.by_addr:
                out.append(Violation(
                    now, "leak", "leak.linker-after-stop", node.name,
                    f"leak.linker-after-stop:{node.name}",
                    f"stopped node {node.name} still holds "
                    f"{len(linker.by_token)} linking attempts"))
            continue
        give_up = node.config.uri_give_up_time()
        for attempt in linker.by_token.values():
            budget = max(1, len(attempt.uris)) * give_up + 60.0
            if now - attempt.started_at > budget:
                out.append(Violation(
                    now, "leak", "leak.link-attempt", node.name,
                    f"leak.link-attempt:{node.name}:{attempt.token}",
                    f"{node.name} linking attempt {attempt.token} toward "
                    f"{attempt.target_addr!r} alive "
                    f"{now - attempt.started_at:.0f}s, budget "
                    f"{budget:.0f}s"))
        for overlord in node.overlords:
            if not overlord.timer_pending and overlord._due() is not None:
                kind = type(overlord).__name__
                out.append(Violation(
                    now, "leak", "leak.overlord-unarmed", node.name,
                    f"leak.overlord-unarmed:{node.name}:{kind}",
                    f"{node.name} {kind} has work due at "
                    f"{overlord._due():.3f} but no tick is scheduled"))
            if isinstance(overlord, FarConnectionOverlord):
                stale = [t for t in overlord._pending
                         if t <= now - 2 * node.config.overlord_interval]
                if stale:
                    out.append(Violation(
                        now, "leak", "leak.far-pending", node.name,
                        f"leak.far-pending:{node.name}",
                        f"{node.name} far overlord holds {len(stale)} "
                        f"expired _pending slots"))
        shortcut = getattr(node, "shortcut_overlord", None)
        if shortcut is not None:
            for dest, until in shortcut._pending.items():
                if node.table.get(dest) is not None:
                    out.append(Violation(
                        now, "leak", "leak.shortcut-pending", node.name,
                        f"leak.shortcut-pending:{node.name}:{dest.hex()}",
                        f"{node.name} holds a shortcut _pending slot for "
                        f"{dest!r} although the connection is up"))
                elif until <= now - 3.0 * node.config.shortcut_tick:
                    out.append(Violation(
                        now, "leak", "leak.shortcut-pending-expired",
                        node.name,
                        f"leak.shortcut-pending-expired:{node.name}:"
                        f"{dest.hex()}",
                        f"{node.name} shortcut _pending slot for {dest!r} "
                        f"expired {now - until:.0f}s ago and was never "
                        f"pruned"))
    if internet is not None:
        out.extend(_check_nat_indices(internet, now))
    if spans is not None and spans.enabled:
        out.extend(check_spans(spans, now, span_grace))
    return out


def _check_nat_indices(internet: "Internet", now: float) -> list[Violation]:
    """A NAT's ``_by_key`` and ``_by_port`` must mirror each other —
    a one-sided entry is an orphaned mapping that can shadow a public
    port forever."""
    out: list[Violation] = []
    for nat in internet.nats_by_ip.values():
        bad = 0
        for port, m in nat._by_port.items():
            if nat._by_key.get(m.key) is not m or m.public_port != port:
                bad += 1
        for key, m in nat._by_key.items():
            if nat._by_port.get(m.public_port) is not m or m.key != key:
                bad += 1
        if bad:
            out.append(Violation(
                now, "leak", "leak.nat-mapping", nat.name,
                f"leak.nat-mapping:{nat.name}",
                f"NAT {nat.name} has {bad} mapping index entries whose "
                f"_by_key/_by_port mirrors disagree"))
    return out


def check_spans(spans: "SpanCollector", now: float,
                span_grace: float = 900.0) -> list[Violation]:
    """No non-root span may stay open longer than ``span_grace``.

    Root spans are exempt: a lost packet legitimately leaves its root
    open (the inspector renders it as "lost").  A non-root span still
    open long after the slowest legal linking ladder (~3 dead URIs ×
    155 s) is a leak — e.g. an attempt deregistered without closing its
    span.
    """
    out: list[Violation] = []
    roots = set(spans.roots.values())
    for span in spans.spans:
        if span.t1 is None and span.id not in roots \
                and now - span.t0 > span_grace:
            out.append(Violation(
                now, "span", "span.dangling", span.node,
                f"span.dangling:{span.id}",
                f"span {span.id} ({span.name}, trace {span.trace_id}) on "
                f"{span.node} open since t={span.t0:g}s"))
    return out
