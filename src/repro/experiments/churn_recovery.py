"""Churn recovery: kill a fraction of the overlay, time the self-repair.

The paper's §V-E argues WOW "self-organizes": nodes fail and the ring
re-converges without operator action.  This experiment quantifies that —
an overlay of IPOP nodes (each owning a virtual IP) is warmed up to full
all-pairs virtual-IP routability, a :class:`~repro.fault.FaultSchedule`
then crashes ``kill_fraction`` of the nodes simultaneously (no
close-notify: true crashes, detected only by the liveness layer), and the
surviving nodes are sampled until both

* **ring consistency** — every survivor is connected to its true ring
  successor, and
* **all-pairs virtual-IP routability** — greedy routing finds a live path
  for every ordered pair of survivors' virtual IPs

hold again.  Recovery time is reported for each.  With a fixed seed the
whole run — fault timing, repair traffic, recovery curve — is
deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.brunet.config import BrunetConfig
from repro.brunet.node import BrunetNode
from repro.brunet.routing import trace_route
from repro.brunet.stats import routable_fraction
from repro.brunet.uri import Uri
from repro.check.invariants import ring_verdict
from repro.experiments.common import print_table
from repro.experiments.plotting import ascii_plot, export_series_csv
from repro.fault import FaultSchedule
from repro.ipop.ippacket import IcmpEcho
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.phys.network import Internet
from repro.phys.topology import Site
from repro.sim.engine import Simulator

#: public sites the overlay is spread over (round-robin) so repair traffic
#: crosses WAN latencies, not just a LAN
N_SITES = 4


@dataclass
class ChurnResult:
    """Outcome of one churn-recovery run."""

    seed: int
    n_nodes: int
    n_killed: int
    t_kill: float
    #: seconds from the kill until ring consistency returned (None = never)
    recovery_ring: Optional[float]
    #: seconds from the kill until all-pairs routability returned
    recovery_routes: Optional[float]
    #: (seconds since kill, routable pair fraction, ring consistent)
    series: list[tuple[float, float, bool]] = field(default_factory=list)
    fault_log: list = field(default_factory=list)
    #: export manifest when the run was observed (``obs_dir`` given)
    obs_manifest: Optional[dict] = None
    #: invariant-audit violations (``audit=True``); None = audit off
    violations: Optional[list] = None
    #: kernel self-profile summary (``profile_kernel=True``); None = off
    profile: Optional[dict] = None

    @property
    def recovered(self) -> bool:
        return (self.recovery_ring is not None
                and self.recovery_routes is not None)


def _build_overlay(sim: Simulator, n_nodes: int,
                   config: BrunetConfig) -> tuple[Internet, list[BrunetNode]]:
    """``n_nodes`` IPOP nodes across ``N_SITES`` public sites; node 0 is
    the bootstrap seed.  Virtual IP of node *i* is ``172.16.9.(i+2)``."""
    internet = Internet(sim)
    sites = [Site(internet, f"pub{i}") for i in range(N_SITES)]
    nodes: list[BrunetNode] = []
    routers: list[IpopRouter] = []
    bootstrap: list[Uri] = []
    for i in range(n_nodes):
        virtual_ip = f"172.16.9.{i + 2}"
        host = sites[i % N_SITES].add_host(f"ch{i}")
        node = BrunetNode(sim, host, addr_for_ip(virtual_ip), config,
                          name=f"churn{i}")
        node.start(list(bootstrap))
        routers.append(IpopRouter(node, virtual_ip))
        if not bootstrap:
            bootstrap.append(Uri.udp(host.ip, node.port))
        nodes.append(node)
        sim.run(until=sim.now + 3.0)  # staggered joins
    return internet, nodes, routers


def _probe_multi_hop(sim: Simulator, nodes: list[BrunetNode],
                     routers: list[IpopRouter]) -> None:
    """Ping across the first ordered pair whose greedy route is ≥ 2 hops,
    so the span export contains a genuinely multi-hop virtual-IP trace."""
    registry = {n.addr: n for n in nodes if n.active}
    for i, a in enumerate(nodes):
        if not a.active:
            continue
        for j, b in enumerate(nodes):
            if a is b or not b.active:
                continue
            path = trace_route(a, b.addr, registry.get)
            if path is None or len(path) < 3:  # < 2 overlay hops
                continue
            echo = IcmpEcho(seq=1, is_reply=False, sent_at=sim.now,
                            data_size=64)
            routers[i].send_ip(routers[j].virtual_ip, "icmp", 0, echo, 72)
            sim.run(until=sim.now + 5.0)  # let echo + reply land
            return


def run(seed: int = 0, n_nodes: int = 20, kill_fraction: float = 0.25,
        settle: float = 400.0, horizon: float = 600.0,
        sample_every: float = 5.0,
        obs_dir: Optional[str] = None,
        audit: bool = False,
        profile_kernel: bool = False) -> ChurnResult:
    """One deterministic churn-recovery measurement.

    ``obs_dir`` — when given, causal span tracing and the flight recorder
    are enabled and the full observability bundle (metrics, spans, events,
    manifest) is exported there at the end of the run; an address-ring
    sector rollup over the live population is registered too, so the
    bundle carries ``ring.sector.*`` gauges.

    ``audit`` — run the invariant auditor inline (read-only, so the run's
    trajectory is unchanged); violations land in
    :attr:`ChurnResult.violations` and, with ``obs_dir``, in the bundle's
    ``violations.jsonl``.

    ``profile_kernel`` — attach the kernel self-profiler (also
    read-only); the summary lands in :attr:`ChurnResult.profile` and,
    with ``obs_dir``, ``profile.json`` + ``profile.folded`` are written
    beside the bundle.
    """
    sim = Simulator(seed=seed, trace=False)
    if profile_kernel:
        sim.obs.enable_profiler()
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
        sim.obs.enable_spans()
        sim.obs.enable_recorder(
            capacity=256, spill_path=os.path.join(obs_dir, "events.jsonl"))
    internet, nodes, routers = _build_overlay(sim, n_nodes, BrunetConfig())
    if obs_dir is not None:
        sim.obs.enable_rollup(lambda: [n for n in nodes if n.active],
                              sectors=8)
    auditor = None
    if audit:
        from repro.check import Auditor
        auditor = Auditor(sim, lambda: nodes, internet=internet,
                          name="churn").start()

    # warm up to a fully routable overlay before injecting anything
    deadline = sim.now + settle
    while sim.now < deadline:
        live = [n for n in nodes if n.active]
        if (not ring_verdict([n.census() for n in live])
                and routable_fraction(live) == 1.0):
            break
        sim.run(until=sim.now + 10.0)
    if obs_dir is not None:
        _probe_multi_hop(sim, nodes, routers)

    # crash the victims (deterministic choice from the master seed)
    n_killed = max(1, round(n_nodes * kill_fraction))
    rng = sim.rng.stream("churn.victims")
    victims = [nodes[i] for i in
               sorted(rng.choice(n_nodes, size=n_killed, replace=False))]
    faults = FaultSchedule(sim, internet, name="churn")
    t_kill = sim.now + 1.0
    for victim in victims:
        faults.crash_node(t_kill, victim)

    survivors = [n for n in nodes if n not in victims]
    recovery_ring: Optional[float] = None
    recovery_routes: Optional[float] = None
    series: list[tuple[float, float, bool]] = []
    sim.run(until=t_kill)
    while sim.now - t_kill < horizon:
        sim.run(until=sim.now + sample_every)
        elapsed = sim.now - t_kill
        ring_ok = not ring_verdict([n.census() for n in survivors])
        frac = routable_fraction(survivors)
        series.append((elapsed, frac, ring_ok))
        if ring_ok and recovery_ring is None:
            recovery_ring = elapsed
        if frac == 1.0 and recovery_routes is None:
            recovery_routes = elapsed
        if recovery_ring is not None and recovery_routes is not None:
            break
    violations = auditor.finish() if auditor is not None else None
    manifest = (sim.obs.export(obs_dir, seed=seed)
                if obs_dir is not None else None)
    profile = (sim.obs.profiler.summary()
               if sim.obs.profiler is not None else None)
    return ChurnResult(seed=seed, n_nodes=n_nodes, n_killed=n_killed,
                       t_kill=t_kill, recovery_ring=recovery_ring,
                       recovery_routes=recovery_routes, series=series,
                       fault_log=list(faults.fired),
                       obs_manifest=manifest, violations=violations,
                       profile=profile)


def report(result: ChurnResult, csv_dir: Optional[str] = None) -> None:
    """Render the recovery table, the routability curve and optional CSV."""
    fmt = lambda v: "never" if v is None else f"{v:.0f} s"
    print_table(
        "Churn recovery (simultaneous node crashes)",
        ["nodes", "killed", "ring consistent after", "all-pairs routable after"],
        [[result.n_nodes, result.n_killed, fmt(result.recovery_ring),
          fmt(result.recovery_routes)]])
    xs = [t for t, _f, _r in result.series]
    ys = [100.0 * f for _t, f, _r in result.series]
    print()
    print(ascii_plot({"routable pairs %": (xs, ys)},
                     title=(f"Self-repair after killing {result.n_killed}/"
                            f"{result.n_nodes} nodes (seed {result.seed})"),
                     xlabel="seconds since crash"))
    if csv_dir:
        path = export_series_csv(f"{csv_dir}/churn_recovery.csv",
                                 {"routable_fraction": (xs, ys)})
        print(f"[csv] {path}")
    if result.obs_manifest:
        traces = result.obs_manifest.get("traces", [])
        ip = [t["trace"] for t in traces if t["kind"] == "ip"]
        ctm = [t["trace"] for t in traces if t["kind"] == "ctm"]
        print(f"[obs] {len(traces)} traces exported "
              f"({len(ip)} ip, {len(ctm)} ctm); inspect with e.g. "
              f"python -m repro.obs.inspect <dir>"
              + (f" --trace {ip[0]}" if ip else ""))


def main(seed: int = 0, n_nodes: int = 20,
         kill_fraction: float = 0.25) -> ChurnResult:
    result = run(seed=seed, n_nodes=n_nodes, kill_fraction=kill_fraction)
    report(result)
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
