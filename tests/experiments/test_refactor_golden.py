"""Pre/post-refactor byte-identity (ISSUE 9 satellite).

The digests below were captured on main *before* the array-backed ring
index, sweep-wheel timer layer and sharded kernel landed.  They pin the
complete tracer record stream (plus result payloads) of a small churn
run and a small fig4 run, so the refactor is machine-checked to be
decision-identical: same seed, byte-identical trajectory.

Regenerate (only when an *intentional* trajectory change lands)::

    PYTHONPATH=src python -m tests.experiments._golden_fp
"""

from tests.experiments._golden_fp import capture_churn, capture_fig4

#: captured at 8e638bd (pre ISSUE-9 refactor)
CHURN_FP = "4a3dbc42990e618dd912f53ab3c5b23ffc91ba7176a80ea8f5aa093f841915ca"
#: regenerated once, deliberately, by ISSUE 19 on top of cf26e16 (was
#: bffcc6c2…fea87d32 since 8e638bd).  Demand-driven shortcut scoring
#: removes the idle 1 Hz shortcut ticks (143 874 → 90 182 kernel events
#: in this run) and arms a tick from the event that creates work, so its
#: kernel ``seq`` no longer descends from node start.  The 3 044 tracer
#: records are identical, sorted and unsorted; one number differs — the
#: RTT of echo 25 of the UFL-UFL trial (0.1727 → 0.1005 s): node002's
#: shortcut CTM and the joiner's echo are both sent at t = 342.4, run in
#: the other order, and swap two draws of the shared latency RNG
#: (DESIGN.md "Demand-driven shortcut scoring").
FIG4_FP = "75c4aaff83f29a81cf2b66f101daaf11cbcaf050765b5429eed33fdcabaee1eb"


def test_churn_trajectory_byte_identical_to_main():
    assert capture_churn(seed=0) == CHURN_FP


def test_fig4_trajectory_byte_identical_to_main():
    assert capture_fig4(seed=0) == FIG4_FP
