"""Inline invariant auditor.

Runs the checks in :mod:`repro.check.invariants` against the *live*
overlay at sampled sim-time intervals, entirely read-only: the sweep is
an ordinary scheduled event that inspects node state and never sends a
message, so enabling ``--audit`` does not perturb same-seed trajectories
(the only side effect, warming ``next_hop_cache`` entries, is
semantically transparent by the cache-coherence invariant itself).

Convergence-dependent findings (``gated=True``) go through persistence
gating: a finding's stable ``key`` must be re-observed continuously for
:attr:`AuditConfig.grace` seconds before it is promoted to a violation.
Mid-churn the ring *is* briefly wrong — the ping-timeout drop needs up to
52.5 s (DESIGN.md §3.4) to even notice a dead peer — so the default
grace of 120 s separates "repair in progress" from "wedged".  Instant
findings (cache incoherence, metric increases, empty label sets, leaks)
are reported on first sight and deduplicated by key.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Union

from repro.check import invariants
from repro.check.invariants import Violation

if TYPE_CHECKING:  # pragma: no cover
    from repro.brunet.node import BrunetNode
    from repro.phys.network import Internet
    from repro.sim.engine import Simulator

ALL_CHECKS = ("ring", "symmetry", "routing", "cache", "leak")


@dataclasses.dataclass
class AuditConfig:
    """Knobs for the inline auditor."""

    #: sim seconds between sweeps
    interval: float = 10.0
    #: how long a gated finding must persist before it becomes a violation
    grace: float = 120.0
    #: connections younger than this skip the symmetry check
    handshake_grace: float = 30.0
    #: routing chains sampled per sweep
    max_pairs: int = 64
    #: next_hop_cache entries re-verified per node per sweep
    max_cache_entries: int = 256
    #: non-root spans open longer than this are leaks
    span_grace: float = 900.0
    #: per-sweep work budget for big rings (None = unbounded): bounds the
    #: ring/symmetry sweeps to a deterministic stride sample of this many
    #: nodes, the partition BFS to 50× as many edges, the routing sample
    #: to this many pairs and the cache audit to this many entries total
    budget: Optional[int] = None
    #: which invariant classes to run
    checks: tuple = ALL_CHECKS


class Auditor:
    """Samples the overlay's invariants while a simulation runs.

    ``nodes`` is either a concrete iterable of nodes or a zero-argument
    callable returning one — experiments that add/remove nodes pass a
    callable so each sweep sees the current population.
    """

    def __init__(self, sim: "Simulator",
                 nodes: Union[Iterable["BrunetNode"],
                              Callable[[], Iterable["BrunetNode"]]],
                 internet: Optional["Internet"] = None,
                 config: Optional[AuditConfig] = None,
                 name: str = "audit"):
        self.sim = sim
        self._nodes = nodes
        self.internet = internet
        self.config = config or AuditConfig()
        self.name = name
        self.violations: list[Violation] = []
        #: gated finding key -> sim time first observed
        self._pending: dict[str, float] = {}
        #: keys already promoted/reported (dedup)
        self._reported: set[str] = set()
        self.sweeps = 0
        self._timer = None
        self._finished = False
        metrics = sim.obs.metrics
        self._m_sweeps = metrics.counter("audit.sweeps")
        self._m_violations = {
            check: metrics.counter("audit.violations", check=check)
            for check in (*ALL_CHECKS, "span")}
        sim.obs.auditor = self

    # ------------------------------------------------------------------
    def nodes(self) -> list["BrunetNode"]:
        src = self._nodes
        return list(src() if callable(src) else src)

    def start(self) -> "Auditor":
        self._timer = self.sim.schedule(self.config.interval, self._tick)
        return self

    def _tick(self) -> None:
        self.sweep()
        if not self._finished:
            self._timer = self.sim.schedule(self.config.interval, self._tick)

    # ------------------------------------------------------------------
    def sweep(self) -> list[Violation]:
        """Run one audit pass; returns violations *promoted this pass*."""
        cfg = self.config
        now = self.sim.now
        nodes = self.nodes()
        findings: list[Violation] = []
        if "ring" in cfg.checks:
            findings += invariants.check_ring(nodes, now, budget=cfg.budget)
        if "symmetry" in cfg.checks:
            findings += invariants.check_symmetry(
                nodes, now, handshake_grace=cfg.handshake_grace,
                budget=cfg.budget)
        if "routing" in cfg.checks:
            findings += invariants.check_routing(
                nodes, now, max_pairs=cfg.max_pairs, budget=cfg.budget)
        if "cache" in cfg.checks:
            findings += invariants.check_cache(
                nodes, now, max_entries=cfg.max_cache_entries,
                budget=cfg.budget)
        if "leak" in cfg.checks:
            findings += invariants.check_leaks(
                nodes, now, internet=self.internet,
                spans=self.sim.obs.spans, span_grace=cfg.span_grace)
        promoted = self._ingest(findings, now)
        self.sweeps += 1
        self._m_sweeps.inc()
        return promoted

    def _ingest(self, findings: list[Violation],
                now: float) -> list[Violation]:
        promoted: list[Violation] = []
        seen_gated: set[str] = set()
        for v in findings:
            if v.key in self._reported:
                continue
            if not v.gated:
                promoted.append(v)
                continue
            seen_gated.add(v.key)
            first = self._pending.setdefault(v.key, now)
            if now - first >= self.config.grace:
                promoted.append(dataclasses.replace(v, t=first))
        # findings that healed drop out of the pending map entirely
        self._pending = {k: t for k, t in self._pending.items()
                         if k in seen_gated}
        for v in promoted:
            self._reported.add(v.key)
            self._pending.pop(v.key, None)
            self._m_violations[v.check].inc()
        self.violations.extend(promoted)
        return promoted

    # ------------------------------------------------------------------
    def finish(self) -> list[Violation]:
        """Cancel the sweep timer and run one final full pass (leak and
        span audits included).  Returns all violations of the run."""
        if not self._finished:
            self._finished = True
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self.sweep()
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            for v in self.violations:
                fh.write(json.dumps(v.to_row(), sort_keys=True) + "\n")
        return path

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.kind] = counts.get(v.kind, 0) + 1
        return {"sweeps": self.sweeps,
                "violations": len(self.violations),
                "by_kind": dict(sorted(counts.items()))}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Auditor {self.name} sweeps={self.sweeps} "
                f"violations={len(self.violations)}>")
