"""``_next_hop_scan`` computes its greedy metric inline, with no call per
candidate: ``(dest - a) % ADDRESS_SPACE`` (or its mirror for the "right"
approach side), folded at half the ring for the undirected metric.

Each case here puts at most three peers near ``dest`` and a ring seam,
so every decision the scan makes hangs on one or two metric comparisons,
and checks it against the brute-force scan of
``tests/brunet/test_ring_array_equivalence.py``, whose metric is written
with ``ring_distance`` / ``directed_distance``.
Dropping the fold makes the undirected cases fail.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.routing import _next_hop_scan

from tests.brunet.test_ring_array_equivalence import (_table,
                                                      oracle_next_hop_scan)

HALF = ADDRESS_SPACE // 2


def decisions(me, peers, dest, exclude, approach):
    """(the scan's next hop, the oracle's) as peer addresses."""
    table = _table(me, peers)
    me, dest = BrunetAddress(me), BrunetAddress(dest)
    return tuple(
        None if conn is None else int(conn.peer_addr)
        for conn in (_next_hop_scan(table, me, dest, exclude, approach),
                     oracle_next_hop_scan(table, me, dest, exclude,
                                          approach)))


def scan(me, peers, dest, exclude, approach):
    return decisions(me, peers, dest, exclude, approach)[0]


# points within a few steps of a seam: 0, half a ring from 0, or dest
# itself and its antipode, so wraps, folds and ties come up often
steps = st.integers(min_value=-3, max_value=3)
seams = st.sampled_from([0, 1, HALF - 1, HALF, ADDRESS_SPACE - 1])
dests = st.one_of(seams, st.integers(0, ADDRESS_SPACE - 1))
approaches = st.sampled_from([None, "left", "right"])


@st.composite
def cases(draw):
    dest = draw(dests)
    around = st.builds(lambda base, step: (base + step) % ADDRESS_SPACE,
                       st.sampled_from([0, dest, dest + HALF]), steps)
    me = draw(st.one_of(around, st.integers(0, ADDRESS_SPACE - 1)))
    peers = draw(st.lists(around, min_size=1, max_size=3, unique=True))
    return me, peers, dest


@given(case=cases(), exclude=st.booleans(), approach=approaches)
@settings(max_examples=500, deadline=None)
# the wrap at 0: dest 1, peers on both sides of the seam
@example(case=(HALF, [ADDRESS_SPACE - 1, 3], 1), exclude=False,
         approach=None)
@example(case=(HALF, [ADDRESS_SPACE - 1, 3], 1), exclude=False,
         approach="left")
@example(case=(HALF, [ADDRESS_SPACE - 1, 3], 1), exclude=False,
         approach="right")
# an exact tie, one peer per side of dest across the seam: the lower
# address (1) wins over 2**160 - 1
@example(case=(HALF, [ADDRESS_SPACE - 1, 1], 0), exclude=False,
         approach=None)
# the exact half-ring tie: a peer at d == 2**159 is as far clockwise as
# counter-clockwise; me one step off it is closer, which only the fold sees
@example(case=(HALF + 1, [HALF], 0), exclude=False, approach=None)
@example(case=(HALF - 1, [HALF], 0), exclude=False, approach=None)
@example(case=(HALF, [HALF - 1, HALF + 1], 0), exclude=False,
         approach=None)
def test_inline_metric_decides_as_the_address_module_does(case, exclude,
                                                          approach):
    got, want = decisions(*case, exclude, approach)
    assert got == want


@pytest.mark.parametrize("dest", [0, 12345, ADDRESS_SPACE - 2],
                         ids=["zero", "inside", "seam"])
def test_half_ring_ties(dest):
    """Half a ring from ``dest`` (d == 2**159) the fold leaves ``d`` as it
    is: that point is the farthest from ``dest``.  Two peers one step
    either side of it are exactly as far from ``dest`` as each other, and
    the lower address wins."""
    def at(offset):
        return (dest + offset) % ADDRESS_SPACE

    lower, upper = sorted([at(HALF - 1), at(HALF + 1)])
    assert scan(at(HALF), [at(HALF - 1), at(HALF + 1)], dest, False,
                None) == lower
    assert scan(at(HALF), [upper], dest, False, None) == upper
    # a tie with me is no progress; the antipode is no closer than me
    assert scan(at(HALF + 1), [at(HALF - 1)], dest, False, None) is None
    assert scan(at(HALF - 1), [at(HALF)], dest, False, None) is None
