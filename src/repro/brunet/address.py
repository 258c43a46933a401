"""160-bit Brunet addresses and ring arithmetic.

Nodes are ordered on a ring modulo 2**160 (paper Fig. 2).  The helpers here
define the two distance notions everything else uses:

* :func:`directed_distance` — clockwise distance from ``a`` to ``b``;
  "right" neighbours are the nearest by this measure.
* :func:`ring_distance` — min of the two directed distances; greedy routing
  moves to the connection minimizing this to the destination.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np
    from repro.sim.rng import ScalarStream

ADDRESS_BITS = 160
ADDRESS_SPACE = 1 << ADDRESS_BITS


class BrunetAddress(int):
    """A point on the ring.  Subclasses int so arithmetic is free; the class
    only adds construction helpers and a compact repr."""

    def __new__(cls, value: int) -> "BrunetAddress":
        return super().__new__(cls, value % ADDRESS_SPACE)

    def __repr__(self) -> str:
        return f"baddr:{int(self):040x}"[:16] + "…"

    def hex(self) -> str:
        return f"{int(self):040x}"

    def offset(self, delta: int) -> "BrunetAddress":
        """Address ``delta`` steps clockwise (negative = counter-clockwise)."""
        return BrunetAddress(int(self) + delta)


def directed_distance(a: int, b: int) -> int:
    """Clockwise (increasing-address) distance from ``a`` to ``b``."""
    return (b - a) % ADDRESS_SPACE


def ring_distance(a: int, b: int) -> int:
    """Shortest ring distance between ``a`` and ``b``."""
    d = directed_distance(a, b)
    return min(d, ADDRESS_SPACE - d)


def address_from_ip(virtual_ip: str) -> BrunetAddress:
    """Deterministic virtual-IP → P2P address mapping used by IPOP.

    The paper's join experiment maps the same node to "10 different virtual
    IP addresses (mapping B to different locations on the P2P ring)" — this
    hash provides exactly that behaviour.
    """
    digest = hashlib.sha1(f"ipop:{virtual_ip}".encode()).digest()
    return BrunetAddress(int.from_bytes(digest, "big"))


def random_address(rng: np.random.Generator) -> BrunetAddress:
    """Uniformly random ring address from an RNG stream."""
    words = rng.integers(0, 1 << 32, size=5, dtype="uint64")
    value = 0
    for w in words:
        value = (value << 32) | int(w)
    return BrunetAddress(value)


def kleinberg_far_target(me: int, rng: np.random.Generator | ScalarStream,
                         min_distance: int = 2) -> BrunetAddress:
    """Sample a structured-far target address.

    Distance is drawn log-uniformly (harmonic / Kleinberg small-world
    distribution, the algorithm of the paper's reference [37]), which yields
    the O((1/k)·log²n) expected greedy hop count quoted in §IV-A.

    ``min_distance`` should be about the caller's ring-neighbour spacing
    (Symphony-style local size estimation): sampling below it would mostly
    hit the caller's own arc and resolve back to itself.
    """
    lo = math.log2(max(2, min_distance))
    hi = ADDRESS_BITS - 1
    exponent = rng.uniform(min(lo, hi - 1.0), hi)
    distance = int(2.0 ** exponent)
    sign = 1 if rng.random() < 0.5 else -1
    return BrunetAddress(me + sign * distance)


# ---------------------------------------------------------------------------
# bisect primitives over a *sorted* array of ring addresses
#
# These are the shared lookup kernels behind the array-backed overlay state
# (per-node ring views in ConnectionTable, the global RingIndex, census and
# invariant sweeps).  ``addrs`` must be sorted ascending and non-empty; all
# three wrap around the ring, so index arithmetic is mod len(addrs).
# ---------------------------------------------------------------------------

def successor_index(addrs: Sequence[int], target: int) -> int:
    """Index of the first address at-or-clockwise-of ``target`` (wraps).

    ``addrs[successor_index(addrs, t)] == t`` when ``t`` is present.
    """
    return bisect_left(addrs, target) % len(addrs)


def predecessor_index(addrs: Sequence[int], target: int) -> int:
    """Index of the nearest address strictly counter-clockwise of
    ``target`` (wraps).  When ``target`` is present it is *not* its own
    predecessor — except in a one-element array, where there is no other
    choice."""
    return (bisect_left(addrs, target) - 1) % len(addrs)


def nearest_index(addrs: Sequence[int], target: int) -> int:
    """Index minimizing :func:`ring_distance` to ``target``.

    The global minimum is always at the successor or the predecessor; an
    exact tie (one candidate per side) goes to the lower address, matching
    the insertion-order-free tie-break used everywhere since PR 5.
    """
    n = len(addrs)
    i = bisect_left(addrs, target) % n
    j = (i - 1) % n
    if i == j:
        return i
    ai, aj = addrs[i], addrs[j]
    di = ring_distance(ai, target)
    dj = ring_distance(aj, target)
    if di < dj or (di == dj and ai < aj):
        return i
    return j
