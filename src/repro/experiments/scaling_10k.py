"""Ring scaling on one event kernel, up to 10k nodes.

The paper's scalability argument (§I, §IV-A) is asymptotic: greedy routing
over k Kleinberg far links costs O((1/k)·log²n) expected hops.  This is
the repository's one scaling experiment; it grows the overlay from a few
dozen to 10,000 nodes, where joining every node one at a time through the
protocol is no longer the interesting cost.  Methodology:

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
  a least-squares fit of ``hops = c·log²n``, the join time of
  :data:`JOINERS` fresh nodes joining the settled ring through the real
  protocol, an optional churn slice (crash a fraction of the built ring,
  time ring recovery), and a budgeted post-hoc :mod:`repro.check` audit.
* **Memory** — the resident-set growth over building and settling the
  ring, per node (``/proc/self/statm``; NaN where that does not exist).
  It includes allocator slack and the kernel's queue, so it reads above
  the ``tracemalloc`` heap that ``tests/brunet/test_memory_per_node.py``
  bounds.

Run ``python -m repro.experiments.scaling_10k --help`` for the CLI; CI
runs the 1k-point smoke (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import math
import os
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
from repro.brunet.stats import (
    hop_sample,
    routable_fraction,
    sampled_pairs,
)
from repro.brunet.uri import Uri
from repro.check import invariants
from repro.experiments.common import print_table
from repro.phys import Endpoint, Internet, Site
from repro.sim.engine import Simulator

#: minimum public sites the overlay is spread over (round-robin), so
#: maintenance and repair traffic crosses WAN latencies; grows with n
#: because one site's /24 holds at most ~250 hosts
MIN_SITES = 4
SITE_CAPACITY = 250
#: fresh nodes that join the settled ring one second apart, each timed
#: from ``start()`` to its first structured-near link
JOINERS = 8
#: simulated seconds the joiners get before the stragglers are given up
JOIN_HORIZON = 60.0


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
    #: mean seconds a fresh node takes to join the settled ring (NaN if
    #: none of the :data:`JOINERS` made it within :data:`JOIN_HORIZON`)
    mean_join_s: float
    sample_pairs: int
    events: int
    wall_s: float
    #: resident-set growth over build + settle, KiB per node (NaN: unread)
    kib_per_node: float = float("nan")
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
def _rss_bytes() -> float:
    """This process's resident set in bytes; NaN without ``/proc``."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return float("nan")
    return pages * os.sysconf("SC_PAGE_SIZE")


def _crash(node: BrunetNode) -> None:
    """True crash: no close-notify, the host stops answering entirely."""
    node.stop()
    node.host.shutdown()


def _time_joins(kernel: Simulator, internet: Internet,
                via: BrunetNode, config: BrunetConfig
                ) -> tuple[list[BrunetNode], float]:
    """Start :data:`JOINERS` fresh nodes one second apart, bootstrapping
    off ``via``; returns (the joiners, their mean join time)."""
    site = Site(internet, "join")
    jrng = kernel.rng.stream("scaling10k.joiners")
    bootstrap = [Uri.udp(via.host.ip, via.port)]
    joiners: list[BrunetNode] = []
    for i in range(JOINERS):
        node = BrunetNode(kernel, site.add_host(f"j{i}"),
                          random_address(jrng), config, name=f"j{i}")
        node.start(list(bootstrap))
        joiners.append(node)
        kernel.run(until=kernel.now + 1.0)
    deadline = kernel.now + JOIN_HORIZON
    while (kernel.now < deadline
           and any(n.joined_at is None for n in joiners)):
        kernel.run(until=kernel.now + 1.0)
    times = [n.joined_at - n.started_at for n in joiners
             if n.joined_at is not None]
    return joiners, float(np.mean(times)) if times else float("nan")


def _churn_slice(kernel: Simulator, nodes: list[BrunetNode],
                 joiners: list[BrunetNode], kill_fraction: float,
                 horizon: float, sample_every: float,
                 sample_pairs: int) -> ChurnSlice:
    """Crash ``kill_fraction`` of ``nodes`` (the built ring); the
    ``joiners`` are never victims but do count among the survivors."""
    n = len(nodes)
    n_killed = max(1, round(n * kill_fraction))
    vrng = kernel.rng.stream("scaling10k.victims")
    victims = sorted(int(i) for i in
                     vrng.choice(n, size=n_killed, replace=False))
    victim_set = set(victims)
    t_kill = kernel.now + 1.0
    for i in victims:
        kernel.schedule_at(t_kill, _crash, nodes[i])
    survivors = ([nodes[i] for i in range(n) if i not in victim_set]
                 + joiners)
    kernel.run(until=t_kill)
    prng = kernel.rng.stream("scaling10k.recovery")
    recovery_ring: Optional[float] = None
    frac = 0.0
    while kernel.now - t_kill < horizon:
        kernel.run(until=kernel.now + sample_every)
        elapsed = kernel.now - t_kill
        if recovery_ring is None and not invariants.ring_verdict(
                [n.census() for n in survivors]):
            recovery_ring = elapsed
        frac = routable_fraction(
            survivors, sampled_pairs(survivors, sample_pairs, prng))
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
    config = BrunetConfig()
    rss0 = _rss_bytes()
    internet, built = build_warm_overlay(kernel, n, config, k_far=k_far)
    nodes.extend(built)
    kernel.run(until=settle)
    kib_per_node = (_rss_bytes() - rss0) / n / 1024

    live = [x for x in nodes if x.active]
    hrng = kernel.rng.stream("scaling10k.pairs")
    hops, unreachable = hop_sample(sampled_pairs(live, sample_pairs, hrng),
                                   {x.addr: x for x in live}.get)
    joiners, mean_join_s = _time_joins(kernel, internet, built[0], config)
    nodes.extend(joiners)
    churn = None
    if churn_fraction > 0.0:
        churn = _churn_slice(kernel, built, joiners, churn_fraction,
                             churn_horizon, sample_every=10.0,
                             sample_pairs=max(100, sample_pairs // 4))
    violations: list = []
    if audit:
        # the ring and label invariants hold at quiescence (they are
        # ``gated``): give the near overlords two periods to relabel
        # around the last join or repair before the one-shot sweep
        kernel.run(until=kernel.now + 2 * config.overlord_interval)
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
        unreachable=unreachable, mean_join_s=mean_join_s,
        sample_pairs=sample_pairs,
        events=kernel.events_processed, wall_s=time.perf_counter() - wall0,
        kib_per_node=kib_per_node, churn=churn, violations=violations)


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
         "mean join (s)", "events", "wall (s)", "KiB/node"],
        [[p.n_nodes, f"{p.mean_hops:.2f}", f"{p.p95_hops:.0f}",
          f"{p.hops_per_log2n_sq:.3f}", p.unreachable,
          f"{p.mean_join_s:.1f}", p.events, f"{p.wall_s:.0f}",
          f"{p.kib_per_node:.1f}"]
         for p in points])
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
