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
#: regenerated once, deliberately, by ISSUE 23 on top of fda7b27 (was
#: 75c4aaff…cabaee1eb since ISSUE 19, which regenerated it for the same
#: kind of reason; bffcc6c2…fea87d32 before).  Deadline-driven leaf, near
#: and far overlords remove the 5 s ticks that had nothing to do (90 182
#: → 60 470 kernel events in this run).  Every tick that has work still
#: runs at the poller's float instant, after that instant's ordinary
#: events and in leaf/near/far order within a node — which keeps
#: ``CHURN_FP`` — but two *nodes* due at one instant now run in arming
#: order, where the pollers ran in the order their chains were born.  The
#: tie that moves this run is the first of its kind: at t = 21.2 plnode2
#: (started at 1.2) and plnode27 (started at 16.2) both trim a stale
#: neighbour and re-announce; the pollers ran plnode27 first (its start
#: event, queued at set-up, ran ahead of plnode2's tick at 16.2 and chain
#: order never changes after that), now plnode2 goes first, their close
#: messages and CTMs draw from the shared latency RNG in the other order
#: (send 1 352 of 49 645 is the first to differ) and the run is another
#: sample of the same process from there on (DESIGN.md §9.4).
FIG4_FP = "87c5cb52236a916e1f274edc51b2fdca9417385366aaa29c7b29186f705c448f"


def test_churn_trajectory_byte_identical_to_main():
    assert capture_churn(seed=0) == CHURN_FP


def test_fig4_trajectory_byte_identical_to_main():
    assert capture_fig4(seed=0) == FIG4_FP
