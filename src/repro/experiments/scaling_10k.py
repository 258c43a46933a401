"""10k-node ring scaling on one event kernel.

The paper's scalability argument (§I, §IV-A) is asymptotic: greedy routing
over k Kleinberg far links costs O((1/k)·log²n) expected hops.  The
existing :mod:`repro.experiments.scaling` sweep verifies the shape up to a
few hundred nodes through the full join protocol; this experiment takes
the simulator to 10,000 nodes, where joining one-at-a-time is no longer
the interesting cost.  Methodology:

* **Warm-started formation** — the structured ring (near neighbours plus k
  Kleinberg-sampled far links, resolved to their nearest live node) is
  constructed directly from the sorted address array, exactly the state
  the join protocol converges to.  Every node then *starts for real*, all
  in the same instant: keep-alives, overlord maintenance and re-announces
  (at 0 and 30 s, then backing off to every 240 s while a node's ring
  neighbours hold) run the genuine protocol over the constructed state
  for ``settle`` seconds, so a mis-wired ring would be repaired — or
  flagged by the audit.  Each node's keep-alive ticks at a phase taken
  from its address (:func:`~repro.brunet.node.keepalive_phase`), so the
  ring does not ping in step although it started in step.
* **One kernel** — the whole ring runs on one
  :class:`~repro.sim.engine.Simulator` with the timing model of every
  other experiment: each datagram lands after its sampled latency, and
  there is one kernel event per keep-alive and per armed overlord tick.
* **Measurement** — mean greedy hop count over sampled pairs at each n,
  a least-squares fit of ``hops = c·log²n``, an optional churn slice
  (crash a fraction, time ring recovery), and a budgeted post-hoc
  :mod:`repro.check` audit.

Run ``python -m repro.experiments.scaling_10k --help`` for the CLI; CI
runs the 1k-point smoke (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.brunet import BrunetConfig, BrunetNode
from repro.brunet.address import (
    ADDRESS_SPACE,
    BrunetAddress,
    kleinberg_far_target,
    nearest_index,
    random_address,
)
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.routing import overlay_hop_count, trace_route
from repro.check import invariants
from repro.experiments.common import print_table
from repro.phys import Endpoint, Internet, Site
from repro.sim.engine import Simulator

#: minimum public sites the overlay is spread over (round-robin), so
#: maintenance and repair traffic crosses WAN latencies; grows with n
#: because one site's /24 holds at most ~250 hosts
MIN_SITES = 4
SITE_CAPACITY = 250


class ShardedKernel(Simulator):
    """A plain :class:`Simulator` under the name the frozen benchmark
    harness (``benchmarks/ledger``, ``sim_ring_3k``) builds its ring on.

    There is one kernel and one queue: ``shards`` and ``lookahead`` are
    accepted and ignored, ``shards`` is ``[self]``, ``shard(i)`` is
    ``self``, every address is on shard 0, and ``rounds`` and
    ``cross_shard`` stay 0.  Nothing else uses this name; ROADMAP item
    5.8's benchmark change drops it from the harness and then deletes it.
    """

    rounds = 0
    cross_shard = 0

    def __init__(self, seed: int = 0, shards: int = 1,
                 lookahead: float = 0.0, **kwargs):
        super().__init__(seed=seed, **kwargs)

    @property
    def shards(self) -> list[Simulator]:
        return [self]

    def shard(self, index: int) -> Simulator:
        return self

    def shard_index(self, addr: int) -> int:
        return 0


@dataclass
class ChurnSlice:
    """Outcome of the crash-and-recover slice at one scale point."""

    n_killed: int
    #: seconds from the crash until survivor ring consistency (None = never)
    recovery_ring: Optional[float]
    #: routable fraction over sampled survivor pairs at the horizon
    routable_end: float
    horizon: float


@dataclass
class Scale10kPoint:
    """One scale-point measurement."""

    n_nodes: int
    mean_hops: float
    p95_hops: float
    unreachable: int
    sample_pairs: int
    events: int
    wall_s: float
    churn: Optional[ChurnSlice] = None
    violations: list = field(default_factory=list)

    @property
    def hops_per_log2n_sq(self) -> float:
        return self.mean_hops / (math.log2(self.n_nodes) ** 2)


def fit_k(points: list[Scale10kPoint]) -> float:
    """Least-squares ``c`` through the origin for ``hops = c·log²n``."""
    num = sum(p.mean_hops * math.log2(p.n_nodes) ** 2 for p in points
              if math.isfinite(p.mean_hops))
    den = sum(math.log2(p.n_nodes) ** 4 for p in points
              if math.isfinite(p.mean_hops))
    return num / den if den else float("nan")


# ---------------------------------------------------------------------------
# warm-started formation
# ---------------------------------------------------------------------------
def _wire(a: BrunetNode, b: BrunetNode, conn_type: ConnectionType,
          now: float) -> None:
    """Install one overlay link, both directions (merging labels if the
    physical link already exists)."""
    a.table.add(Connection(b.addr, Endpoint(b.host.ip, b.port),
                           conn_type, now))
    b.table.add(Connection(a.addr, Endpoint(a.host.ip, a.port),
                           conn_type, now))


def build_warm_overlay(kernel: Simulator, n: int, config: BrunetConfig,
                       k_far: int = 4) -> tuple[Internet, list[BrunetNode]]:
    """``n`` nodes with the converged structured topology pre-installed.

    Returns (internet, nodes sorted by ring address); every node's start
    is scheduled at the kernel's current instant.
    """
    internet = Internet(kernel)
    n_sites = max(MIN_SITES, -(-n // SITE_CAPACITY))
    sites = [Site(internet, f"pub{i}") for i in range(n_sites)]
    arng = kernel.rng.stream("scaling10k.addrs")
    uniq: set[int] = set()
    while len(uniq) < n:
        uniq.add(int(random_address(arng)))
    addrs = sorted(uniq)
    nodes: list[BrunetNode] = []
    for i, a in enumerate(addrs):
        host = sites[i % n_sites].add_host(f"s{i}")
        nodes.append(BrunetNode(kernel, host, BrunetAddress(a), config,
                                name=f"s{i}"))
    now = kernel.now
    # the sorted-address ring: near links to both true neighbours
    for i, node in enumerate(nodes):
        _wire(node, nodes[(i + 1) % n], ConnectionType.STRUCTURED_NEAR, now)
    # k far links per node at Kleinberg distances, resolved greedily to
    # the nearest live address — the state FarConnectionOverlord converges
    # to; any shortfall (duplicate targets) is topped up by the overlord
    # itself during the settle phase
    frng = kernel.rng.stream("scaling10k.far")
    for i, node in enumerate(nodes):
        spacing = max(2, (addrs[(i + 1) % n] - addrs[i]) % ADDRESS_SPACE)
        made = tries = 0
        while made < k_far and tries < 8 * k_far:
            tries += 1
            target = kleinberg_far_target(addrs[i], frng,
                                          min_distance=spacing)
            peer = nodes[nearest_index(addrs, int(target))]
            if peer is node or node.table.get(peer.addr) is not None:
                continue
            _wire(node, peer, ConnectionType.STRUCTURED_FAR, now)
            made += 1
    for node in nodes:
        kernel.schedule_at(now, node.start, [])
    return internet, nodes


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------
def _sample_hops(nodes: list[BrunetNode], sample_pairs: int,
                 rng: np.random.Generator) -> tuple[list[int], int]:
    live = [n for n in nodes if n.active]
    registry = {n.addr: n for n in live}
    hops: list[int] = []
    unreachable = 0
    for _ in range(sample_pairs):
        a, b = rng.choice(len(live), size=2, replace=False)
        h = overlay_hop_count(live[int(a)], live[int(b)].addr, registry.get)
        if h is None:
            unreachable += 1
        else:
            hops.append(h)
    return hops, unreachable


def _ring_consistent(live: list[BrunetNode]) -> bool:
    ordered = sorted(live, key=lambda n: int(n.addr))
    return all(
        ordered[i].table.get(ordered[(i + 1) % len(ordered)].addr) is not None
        for i in range(len(ordered)))


def _routable_fraction(live: list[BrunetNode], sample_pairs: int,
                       rng: np.random.Generator) -> float:
    registry = {n.addr: n for n in live}
    ok = total = 0
    for _ in range(sample_pairs):
        a, b = rng.choice(len(live), size=2, replace=False)
        total += 1
        if trace_route(live[int(a)], live[int(b)].addr,
                       registry.get) is not None:
            ok += 1
    return ok / total if total else 1.0


def _crash(node: BrunetNode) -> None:
    """True crash: no close-notify, the host stops answering entirely."""
    node.stop()
    node.host.shutdown()


def _churn_slice(kernel: Simulator, nodes: list[BrunetNode],
                 kill_fraction: float, horizon: float,
                 sample_every: float, sample_pairs: int) -> ChurnSlice:
    n = len(nodes)
    n_killed = max(1, round(n * kill_fraction))
    vrng = kernel.rng.stream("scaling10k.victims")
    victims = sorted(int(i) for i in
                     vrng.choice(n, size=n_killed, replace=False))
    victim_set = set(victims)
    t_kill = kernel.now + 1.0
    for i in victims:
        kernel.schedule_at(t_kill, _crash, nodes[i])
    survivors = [nodes[i] for i in range(n) if i not in victim_set]
    kernel.run(until=t_kill)
    prng = kernel.rng.stream("scaling10k.recovery")
    recovery_ring: Optional[float] = None
    frac = 0.0
    while kernel.now - t_kill < horizon:
        kernel.run(until=kernel.now + sample_every)
        elapsed = kernel.now - t_kill
        if recovery_ring is None and _ring_consistent(survivors):
            recovery_ring = elapsed
        frac = _routable_fraction(survivors, sample_pairs, prng)
        if recovery_ring is not None and frac == 1.0:
            break
    return ChurnSlice(n_killed=n_killed, recovery_ring=recovery_ring,
                      routable_end=frac, horizon=horizon)


# ---------------------------------------------------------------------------
# one scale point
# ---------------------------------------------------------------------------
def measure_point(n: int, seed: int = 0, settle: float = 45.0,
                  sample_pairs: int = 600, k_far: int = 4,
                  churn_fraction: float = 0.0,
                  churn_horizon: float = 300.0,
                  audit: bool = True,
                  audit_budget: int = 200) -> Scale10kPoint:
    """Build, settle, and survey one ``n``-node overlay."""
    wall0 = time.perf_counter()
    kernel = Simulator(seed=seed, trace=False)
    nodes: list[BrunetNode] = []
    # aggregate metrics + O(sectors) ring rollup above the node-series
    # threshold; a 10k-node bundle must not carry 10k label series
    kernel.obs.scale_to(n, nodes_fn=lambda: [x for x in nodes if x.active])
    _internet, built = build_warm_overlay(kernel, n, BrunetConfig(),
                                          k_far=k_far)
    nodes.extend(built)
    kernel.run(until=settle)

    hrng = kernel.rng.stream("scaling10k.pairs")
    hops, unreachable = _sample_hops(nodes, sample_pairs, hrng)
    churn = None
    if churn_fraction > 0.0:
        churn = _churn_slice(kernel, nodes, churn_fraction, churn_horizon,
                             sample_every=10.0,
                             sample_pairs=max(100, sample_pairs // 4))
    violations: list = []
    if audit:
        live = [x for x in nodes if x.active]
        now = kernel.now
        violations = (invariants.check_ring(live, now, budget=audit_budget)
                      + invariants.check_symmetry(live, now,
                                                  budget=audit_budget)
                      + invariants.check_routing(live, now,
                                                 budget=audit_budget)
                      + invariants.check_cache(live, now,
                                               budget=audit_budget))
    return Scale10kPoint(
        n_nodes=n, mean_hops=float(np.mean(hops)) if hops else float("nan"),
        p95_hops=float(np.percentile(hops, 95)) if hops else float("nan"),
        unreachable=unreachable, sample_pairs=sample_pairs,
        events=kernel.events_processed, wall_s=time.perf_counter() - wall0,
        churn=churn, violations=violations)


def run(sizes=(1000, 2000, 5000, 10000), seed: int = 0, settle: float = 45.0,
        sample_pairs: int = 600, churn_fraction: float = 0.01,
        churn_horizon: float = 300.0, audit: bool = True,
        audit_budget: int = 200) -> list[Scale10kPoint]:
    """The full sweep; the churn slice runs at the largest size only."""
    largest = max(sizes)
    return [measure_point(
        n, seed=seed, settle=settle, sample_pairs=sample_pairs,
        churn_fraction=churn_fraction if n == largest else 0.0,
        churn_horizon=churn_horizon, audit=audit,
        audit_budget=audit_budget) for n in sizes]


def report(points: list[Scale10kPoint]) -> None:
    print_table(
        "Ring scaling — greedy hops vs c·log²n",
        ["nodes", "mean hops", "p95", "hops/log²n", "unreachable",
         "events", "wall (s)"],
        [[p.n_nodes, f"{p.mean_hops:.2f}", f"{p.p95_hops:.0f}",
          f"{p.hops_per_log2n_sq:.3f}", p.unreachable, p.events,
          f"{p.wall_s:.0f}"] for p in points])
    c = fit_k(points)
    print(f"\nleast-squares fit: hops ≈ {c:.4f}·log²n "
          f"(k_far=4 predicts O(log²n/4) ⇒ c·k ≈ {4 * c:.2f})")
    for p in points:
        if p.churn is not None:
            rec = ("never" if p.churn.recovery_ring is None
                   else f"{p.churn.recovery_ring:.0f} s")
            print(f"churn @ n={p.n_nodes}: killed {p.churn.n_killed}, "
                  f"ring consistent after {rec}, sampled routable "
                  f"{p.churn.routable_end * 100:.1f}% at horizon")
    total = sum(len(p.violations) for p in points)
    if total:
        print(f"[audit] FAILED: {total} invariant violation(s)")
        for p in points:
            for v in p.violations:
                print(f"[audit]   n={p.n_nodes} t={v.t:10.3f} "
                      f"{v.kind:28s} {v.node:16s} {v.detail}")
    else:
        print("[audit] clean (budgeted post-hoc sweep)")


def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="10k-node ring scaling: greedy hops vs c·log²n")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1000, 2000, 5000, 10000])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settle", type=float, default=45.0)
    parser.add_argument("--sample-pairs", type=int, default=600)
    parser.add_argument("--churn-fraction", type=float, default=0.01)
    parser.add_argument("--churn-horizon", type=float, default=300.0)
    parser.add_argument("--no-audit", action="store_true")
    parser.add_argument("--audit-budget", type=int, default=200)
    args = parser.parse_args(argv)
    points = run(sizes=tuple(args.sizes), seed=args.seed,
                 settle=args.settle, sample_pairs=args.sample_pairs,
                 churn_fraction=args.churn_fraction,
                 churn_horizon=args.churn_horizon,
                 audit=not args.no_audit, audit_budget=args.audit_budget)
    report(points)
    return 1 if any(p.violations for p in points) else 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
