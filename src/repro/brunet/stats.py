"""Overlay-wide route sampling.

Greedy hop-count samples and the routable fraction the experiments and
tests read off a set of nodes.  Whether those nodes form the ring is not
decided here: that is :func:`repro.check.invariants.ring_verdict`, over
the nodes' :meth:`~repro.brunet.node.BrunetNode.census` records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.brunet.routing import overlay_hop_count

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode

Pair = tuple["BrunetNode", "BrunetNode"]


def sampled_pairs(nodes: list["BrunetNode"], count: int,
                  rng: np.random.Generator) -> Iterator[Pair]:
    """``count`` ordered pairs of distinct nodes, one ``rng.choice`` each
    (uniform, for hop statistics; the auditor's ``invariants.sample_pairs``
    draws no RNG, so that an audited run replays an unaudited one)."""
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
