"""What one measured pass of a workload hands back."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Optional


class OracleError(RuntimeError):
    """An output check failed: the workload's answer is wrong, however
    fast it was."""


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One set-up + measured phase + tear-down."""

    #: wall seconds of set-up, and ``ref.host_speed_s()`` right after it
    setup_s: float
    setup_ref_s: float
    #: the gated paired cost and its p90 twin (see README.md)
    cost_x: float
    tail_x: float
    #: standard error of each, as a share of the value, from the windows
    se_frac: dict[str, float]
    #: closed-loop operations sent, and those whose reply/delivery arrived
    attempted: int
    delivered: int
    #: operations behind the medians (kernel events for the simulator)
    ops: int
    #: host-speed record and absolute twins — diagnostics, never gated
    abs: dict[str, float] = field(default_factory=dict)
    #: counters read from public program state
    counters: dict[str, float] = field(default_factory=dict)
    #: oracle misses; any entry fails the workload
    problems: list[str] = field(default_factory=list)
    #: digest of simulated outcomes (``sim_*`` only), and the same after
    #: the first join trial alone (``sim_join_*`` only)
    digest: str = ""
    first_trial_digest: str = ""
    #: (op id, seconds) per closed-loop operation of a traced pass
    op_log: list[tuple[int, float]] = field(default_factory=list)
    #: the same measurement repeated with shims installed (``--trace 1``)
    traced: Optional["Pass"] = None
    #: the warmed program state, kept for the drills that need one
    scenario: Any = None
