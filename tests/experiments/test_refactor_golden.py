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
#: It held when the near overlord's settled re-announce began to back off
#: (30 → 240 s): the run ends before any node's announce schedule differs.
CHURN_FP = "b9f18e82f40a5f4c34968bff89e94c709a2afa09e8ad31155ecf1aa8bb14431d"
#: regenerated once, deliberately, when the near overlord's settled
#: re-announce began to back off (each announce that finds the ring
#: neighbours unchanged doubles the wait, 30 s up to 240 s): a settled
#: node announces less often, so fewer CTMs draw the shared latency RNG
#: and the run is another sample (2 033 → 880 announces, 60 033 → 49 338
#: kernel events).  Before it, regenerated for the keep-alive phase
#: (9cdf8e38…cf952f7, 60 470 → 60 033 kernel events) and once each when
#: the shortcut overlord and then the leaf, near and far overlords
#: stopped polling (87c5cb52…f705c448f, 75c4aaff…cabaee1eb,
#: bffcc6c2…fea87d32): same-instant ties between two nodes' ticks ran in
#: another order (DESIGN.md §3.3).
FIG4_FP = "bd2a275c35cbe1635a6dc3564cd5e83d8ffc87012062bf642ba9aeedfabd5886"


def test_churn_trajectory_byte_identical_to_main():
    assert capture_churn(seed=0) == CHURN_FP


def test_fig4_trajectory_byte_identical_to_main():
    assert capture_fig4(seed=0) == FIG4_FP
