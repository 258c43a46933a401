"""Overlay-wide diagnostics.

The one copy of each overlay survey the experiments, tests and examples
use: ring consistency, greedy hop-count samples, the routable fraction,
the connection census and a printable ring summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.brunet.connection import ConnectionType
from repro.brunet.routing import overlay_hop_count

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode
    from repro.core.wow import Deployment

Pair = tuple["BrunetNode", "BrunetNode"]


def ring_consistent(nodes: list["BrunetNode"]) -> bool:
    """Every node is connected to its true ring successor among ``nodes``
    (any order; vacuously true below two nodes)."""
    if len(nodes) < 2:
        return True
    ordered = sorted(nodes, key=lambda n: int(n.addr))
    return all(a.table.get(b.addr) is not None
               for a, b in zip(ordered, ordered[1:] + ordered[:1]))


def sampled_pairs(nodes: list["BrunetNode"], count: int,
                  rng: np.random.Generator) -> Iterator[Pair]:
    """``count`` ordered pairs of distinct nodes, one ``rng.choice`` each."""
    for _ in range(count):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        yield nodes[int(a)], nodes[int(b)]


def hop_sample(pairs: Iterable[Pair],
               resolve: Callable) -> tuple[list[int], int]:
    """Greedy hop count of each pair: (hops of the routable pairs, number
    of unreachable pairs).  ``resolve`` maps an address to its node."""
    hops: list[int] = []
    unreachable = 0
    for src, dst in pairs:
        h = overlay_hop_count(src, dst.addr, resolve)
        if h is None:
            unreachable += 1
        else:
            hops.append(h)
    return hops, unreachable


def routable_fraction(nodes: list["BrunetNode"],
                      pairs: Optional[Iterable[Pair]] = None) -> float:
    """Fraction of ``pairs`` (default: every ordered pair) that greedy
    routing delivers through ``nodes`` alone; 1.0 when there are none."""
    if pairs is None:
        pairs = ((a, b) for a in nodes for b in nodes if a is not b)
    hops, unreachable = hop_sample(pairs, {n.addr: n for n in nodes}.get)
    total = len(hops) + unreachable
    return len(hops) / total if total else 1.0


@dataclass
class OverlaySurvey:
    """Snapshot of a deployment's overlay health."""

    n_nodes: int
    ring_consistent: bool
    connections_by_type: Counter = field(default_factory=Counter)
    degree_mean: float = 0.0
    degree_max: int = 0
    hop_counts: list[int] = field(default_factory=list)
    unreachable_pairs: int = 0

    @property
    def hop_mean(self) -> float:
        """Mean greedy hop count over the sampled routes."""
        return float(np.mean(self.hop_counts)) if self.hop_counts else 0.0

    @property
    def hop_p95(self) -> float:
        """95th-percentile hop count."""
        return (float(np.percentile(self.hop_counts, 95))
                if self.hop_counts else 0.0)

    def summary_lines(self) -> list[str]:
        """Human-readable multi-line summary."""
        lines = [
            f"nodes: {self.n_nodes}  ring consistent: {self.ring_consistent}",
            f"degree: mean {self.degree_mean:.1f}, max {self.degree_max}",
            "connections: " + ", ".join(
                f"{t}: {n}" for t, n in sorted(
                    self.connections_by_type.items())),
        ]
        if self.hop_counts:
            lines.append(f"routes: mean {self.hop_mean:.2f} hops, "
                         f"p95 {self.hop_p95:.0f}, "
                         f"unreachable pairs {self.unreachable_pairs}")
        return lines


def survey(deployment: "Deployment", sample_sources: int = 12,
           include_routes: bool = True,
           sample_dests: Optional[int] = None) -> OverlaySurvey:
    """Measure the live overlay (structural census + sampled routes).

    The node list comes off the deployment's incrementally-maintained
    :class:`~repro.brunet.ring.RingIndex` (no per-call sort).  By default
    every sampled source is routed to *every* destination — exact, but
    O(sources·n); pass ``sample_dests`` to stride-sample destinations
    too, keeping a 10k-node census O(sources·dests) and deterministic
    (same stride pattern every call, no RNG).  Strides round up, so at
    most ``sample_sources`` sources and ``sample_dests`` destinations.
    """
    nodes = deployment.ring_nodes()
    out = OverlaySurvey(n_nodes=len(nodes),
                        ring_consistent=ring_consistent(nodes))
    degrees = []
    for node in nodes:
        conns = node.table.all()
        degrees.append(len(conns))
        for conn in conns:
            for t in conn.types:
                out.connections_by_type[t.value] += 1
    if degrees:
        out.degree_mean = float(np.mean(degrees))
        out.degree_max = int(max(degrees))
    if include_routes and len(nodes) > 1:
        sources = nodes[:: -(-len(nodes) // sample_sources)]
        dests = nodes
        if sample_dests is not None:
            dests = nodes[:: -(-len(nodes) // sample_dests)]
        out.hop_counts, out.unreachable_pairs = hop_sample(
            ((s, d) for s in sources for d in dests if s is not d),
            deployment.resolve)
    return out


def shortcut_census(deployment: "Deployment") -> dict[str, int]:
    """How many shortcut links exist between each site pair."""
    pairs: Counter = Counter()
    for node in deployment.ring_nodes():
        for conn in node.table.by_type(ConnectionType.SHORTCUT):
            peer = deployment.resolve(conn.peer_addr)
            if peer is None:
                continue
            a = node.host.site.name
            b = peer.host.site.name
            pairs["~".join(sorted((a, b)))] += 1
    # each link counted once per endpoint
    return {k: v // 2 for k, v in pairs.items() if v >= 2} | \
        {k: v for k, v in pairs.items() if v == 1}
