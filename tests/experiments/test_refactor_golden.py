"""Pre/post-refactor byte-identity.

The digests below were captured on main *before* the array-backed ring
index, a batched timer layer (since deleted) and the sharded kernel
landed.  They pin the complete tracer record stream (plus result
payloads) of a small churn run and a small fig4 run, so the refactor is
machine-checked to be decision-identical: same seed, byte-identical
trajectory.

Regenerate (only when an *intentional* trajectory change lands)::

    PYTHONPATH=src python -m tests.experiments._golden_fp
"""

from tests.experiments._golden_fp import capture_churn, capture_fig4

#: regenerated once, deliberately, when each node's first keep-alive
#: tick moved to ``ping_interval / 2 · keepalive_phase(addr)`` after its
#: start (it was ``ping_interval / 2`` for every node): every keep-alive
#: tick lands at another instant, pings go out in another order and
#: draw the shared latency RNG in another order, and the run is another
#: sample of the same process (675 → 689 kernel events).  Captured at
#: 8e638bd before that, and unchanged until it.
CHURN_FP = "b9f18e82f40a5f4c34968bff89e94c709a2afa09e8ad31155ecf1aa8bb14431d"
#: regenerated for the same change (60 470 → 60 033 kernel events).
#: Before it, regenerated once each when the shortcut overlord and then
#: the leaf, near and far overlords stopped polling (87c5cb52…f705c448f,
#: 75c4aaff…cabaee1eb, bffcc6c2…fea87d32): same-instant ties between two
#: nodes' ticks ran in another order (DESIGN.md §9.4).
FIG4_FP = "9cdf8e38313edb656d5dd98df9626cac53e58ea8750bd05abcc6aa549cf952f7"


def test_churn_trajectory_byte_identical_to_main():
    assert capture_churn(seed=0) == CHURN_FP


def test_fig4_trajectory_byte_identical_to_main():
    assert capture_fig4(seed=0) == FIG4_FP
