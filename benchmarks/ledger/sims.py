"""The three simulator workloads: host seconds per simulated second.

``sim_join_reference`` / ``sim_join_codec`` replay Fig. 4 join trials on
the full paper testbed (118 PlanetLab routers + 33 VMs behind their NATs)
in the two wire modes; ``sim_ring_3k`` routes probes over a warm-started
3000-node ring on the sharded kernel.  The work of a pass is fixed by
``--seed`` and ``--seconds`` alone (never by the host's speed), so the
kernel-event count and every simulated outcome repeat exactly.

Windows are slices of *simulated* time driven through ``sim.run(until=)``
and hold unequal work, so the gated cost is the sum over windows of
(window wall / bracketing ``ref.des_kernel`` wall) per simulated second.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from time import perf_counter

import numpy as np

from repro.brunet.config import BrunetConfig
from repro.core.testbed import build_paper_testbed
from repro.experiments import scaling_10k
from repro.ipop import Pinger
from repro.sim.engine import Simulator

from benchmarks.ledger import paired
from benchmarks.ledger.common import Pass, peak_rss_mb
from benchmarks.ledger.ref import des_kernel, host_speed_s

#: Fig. 4 location cases: (joiner's site, target VM number)
JOIN_CASES = (("UFL-UFL", "ufl", 2), ("UFL-NWU", "ufl", 17),
              ("NWU-NWU", "nwu", 17))
JOIN_TRIALS = 6
#: echoes per trial per ``--seconds``; one echo per simulated second
ECHOES_PER_SECOND = 15
JOIN_TAIL = 10.0      # simulated seconds after the last echo (as fig4)
JOIN_DRAIN = 60.0     # stale peer state drains between trials (as fig4)
JOIN_WINDOW = 10.0    # simulated seconds per window

RING_NODES = 3000
RING_SETTLE = 30.0
RING_WINDOW = 1.0
RING_WINDOWS_PER_SECOND = 7
RING_PROBES = 200


def _profile_shares(profiler, wall_s: float) -> dict[str, float]:
    """``sim.prof.*_share``: each profiler category's handler time as a
    share of the traced windows' wall time.  The kernel share also takes
    the time no handler accounts for (queue pops, dispatch, the shards'
    barrier rounds), so the shares sum to 1 by construction."""
    named = ("routing", "linking", "codec", "nat", "phys", "obs", "driver")
    totals = {cat: agg["time_s"]
              for cat, agg in profiler.category_totals().items()}
    handler_s = sum(totals.values())
    shares = {f"sim.prof.{cat}_share": totals.pop(cat, 0.0) / wall_s
              for cat in named}
    kernel_s = totals.pop("kernel", 0.0) + max(wall_s - handler_s, 0.0)
    shares["sim.prof.kernel_share"] = kernel_s / wall_s
    shares["sim.prof.other_share"] = sum(totals.values()) / wall_s
    return shares


class _Windows:
    """Timed slices of simulated time, each bracketed by ``des_kernel``."""

    def __init__(self, kernel):
        # start every measured phase at the same point of the collector's
        # cycle: a full collection of a 3000-node heap costs as much as
        # three quiet windows, and whether five or six of them fall inside
        # the phase must not depend on how much garbage set-up left behind
        gc.collect()
        self.kernel = kernel
        self.walls: list[float] = []
        self.spans: list[float] = []
        self.events: list[int] = []
        self.setup_ref_s = host_speed_s()
        self.refs = [des_kernel()]

    def run(self, until: float) -> None:
        kernel = self.kernel
        start, events = kernel.now, kernel.events_processed
        t0 = perf_counter()
        kernel.run(until=until)
        self.walls.append(perf_counter() - t0)
        self.spans.append(until - start)
        self.events.append(kernel.events_processed - events)
        self.refs.append(des_kernel())

    def run_to(self, end: float, step: float) -> None:
        while self.kernel.now < end - 1e-9:
            self.run(min(self.kernel.now + step, end))

    def finish(self, setup_s: float, attempted: int, delivered: int) -> Pass:
        w = paired.WARMUP
        ratios = paired.window_ratios(self.walls, self.refs)[w:]
        spans = self.spans[w:]
        sim_s = sum(spans)
        # the busiest fifth of the windows, averaged: one order statistic
        # of a handful of burst windows would be far noisier
        busiest = sorted(zip(ratios, spans), key=lambda rs: rs[0] / rs[1],
                         reverse=True)[:max(1, len(ratios) // 5)]
        events = sum(self.events[w:])
        wall = sum(self.walls[w:])
        result = Pass(
            setup_s=setup_s, setup_ref_s=self.setup_ref_s,
            cost_x=sum(ratios) / sim_s,
            tail_x=(sum(r for r, _ in busiest)
                    / sum(s for _, s in busiest)),
            # the sum has no window-to-window spread to read an error
            # from: windows differ in work, not in noise
            se_frac={"cost_x": 0.0, "tail_x": 0.0},
            attempted=attempted, delivered=delivered, ops=events)
        result.abs.update({
            "ref.des_kernel_ms": statistics.median(self.refs) * 1e3,
            "abs.wall_s": wall,
            "abs.ops_total": float(events),
            "abs.us_per_event": wall / max(events, 1) * 1e6,
            "abs.events_per_s": events / wall,
            "abs.delivered_frac": delivered / max(attempted, 1),
        })
        result.counters["sim.events_per_sim_s"] = events / sim_s
        return result


def _snapshot_sums(metrics) -> dict[str, float]:
    """Counter/gauge values and histogram (sum, count) summed over labels."""
    sums: dict[str, float] = {}
    for row in metrics.snapshot():
        if row["type"] == "histogram":
            sums[row["name"] + ".sum"] = (
                sums.get(row["name"] + ".sum", 0.0) + row["sum"])
            sums[row["name"] + ".count"] = (
                sums.get(row["name"] + ".count", 0.0) + row["count"])
        else:
            sums[row["name"]] = sums.get(row["name"], 0.0) + row["value"]
    return sums


def _phys_counters(internet, sums: dict[str, float], before: tuple,
                   sim_s: float) -> dict[str, float]:
    delivered0, dropped0 = before
    delivered = internet.delivered - delivered0
    dropped = sum(internet.drops.values()) - dropped0
    return {
        "phys.datagrams_per_sim_s": (delivered + dropped) / sim_s,
        "phys.drop_frac": dropped / max(delivered + dropped, 1),
        "phys.nat_mappings": sums.get("nat.mappings_live", 0.0),
    }


def _overlay_counters(nodes, sums: dict[str, float]) -> dict[str, float]:
    return {
        "wire.decode_error": sums.get("wire.decode_error", 0.0),
        "brunet.hops_per_pkt": (sums.get("brunet.route.hops.sum", 0.0)
                                / max(sums.get("brunet.route.hops.count", 0.0),
                                      1.0)),
        "brunet.link_attempts": sums.get("linking.attempts", 0.0),
        "brunet.ctm_sent": float(sum(n.stats["ctm_sent"] for n in nodes)),
        "ipop.ip_misdelivered": float(sum(n.stats["ip_misdelivered"]
                                          for n in nodes)),
        "core.rss_per_node_kb": peak_rss_mb() * 1024 / len(nodes),
    }


# ---------------------------------------------------------------------------
# sim_join_*
# ---------------------------------------------------------------------------
def _shortcut_seq(rtt: np.ndarray, final: float) -> int:
    """First echo from which round trips stay at the direct-path level
    (median of the next 8 within 1.5x the final RTT); -1 if never."""
    for start in range(rtt.size - 8):
        w = rtt[start:start + 8]
        w = w[~np.isnan(w)]
        if w.size >= 4 and np.median(w) <= final * 1.5:
            return start
    return -1


class JoinScenario:
    """A warmed paper testbed plus the Fig. 4 join trials run on it."""

    def __init__(self, seed: int, wire_mode: str):
        self.seed = seed
        t0 = perf_counter()
        self.sim = Simulator(seed=seed, trace=False)
        self.testbed = build_paper_testbed(
            self.sim, brunet_config=BrunetConfig(wire_mode=wire_mode))
        self.testbed.run_warmup()
        self.setup_s = perf_counter() - t0
        self.outcomes: list[tuple] = []
        self.sent = 0
        self.replied = 0

    def trial(self, k: int, count: int, run_to) -> None:
        """Create a VM, ping the case's target ``count`` times at 1 s
        intervals while it joins, tear it down, drain.  ``run_to(t)``
        advances the simulation to time ``t``."""
        sim, dep = self.sim, self.testbed.deployment
        case, site, target = JOIN_CASES[k % len(JOIN_CASES)]
        ip = f"172.16.1.{200 + (self.seed * 7 + k) % 50}"
        vm = dep.create_vm(f"joiner-{k}", ip, dep.sites[site], cpu_speed=1.0)
        vm.start()
        pinger = Pinger(vm.router)
        done = pinger.run(self.testbed.vm(target).virtual_ip, count=count,
                          interval=1.0)
        run_to(sim.now + count + JOIN_TAIL)
        rtt = done.value.rtt
        replied = int((~np.isnan(rtt)).sum())
        final = float(np.nanmedian(rtt[-count // 4:])) if replied else -1.0
        first = done.value.first_reply_seq()
        self.outcomes.append((case, -1 if first is None else first,
                              _shortcut_seq(rtt, final), round(final, 9),
                              count - replied))
        self.sent += count
        self.replied += replied
        pinger.close()
        vm.stop()
        del dep.vms[vm.name]
        run_to(sim.now + JOIN_DRAIN)

    def digest(self, events: int) -> str:
        text = repr((self.outcomes, events))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_join(wire_mode: str, seed: int, seconds: float,
             trials: int = JOIN_TRIALS, tracer=None) -> Pass:
    """One pass of ``sim_join_<wire_mode>``; the first two windows of the
    first trial are the warm-up."""
    scenario = JoinScenario(seed, wire_mode)
    sim, dep = scenario.sim, scenario.testbed.deployment
    internet = dep.internet
    profiler = sim.obs.enable_profiler(stride=1) if tracer else None
    phys0 = (internet.delivered, sum(internet.drops.values()))
    count = max(20, round(ECHOES_PER_SECOND * seconds))
    windows = _Windows(sim)
    t_begin = sim.now
    first_trial_digest = ""
    for k in range(trials):
        scenario.trial(k, count,
                       lambda end: windows.run_to(end, JOIN_WINDOW))
        first_trial_digest = (first_trial_digest
                              or scenario.digest(sum(windows.events)))
    sim_s = sim.now - t_begin
    result = windows.finish(scenario.setup_s, scenario.sent, scenario.replied)
    result.digest = scenario.digest(sum(windows.events))
    result.first_trial_digest = first_trial_digest
    nodes = list(dep.nodes_by_addr.values())
    sums = _snapshot_sums(sim.obs.metrics)
    result.counters.update(_overlay_counters(nodes, sums))
    result.counters.update(_phys_counters(internet, sums, phys0, sim_s))
    result.counters.update({
        "wire.opaque_per_op": sums.get("wire.opaque_frames", 0.0)
        / max(result.ops, 1),
        "sim.heap_compactions": float(sim.compactions),
        "obs.series_count": float(len(sim.obs.metrics.snapshot())),
        "core.testbed_build_s": scenario.setup_s,
    })
    if profiler is not None:
        # the profiler saw the warm-up windows too
        result.counters.update(_profile_shares(profiler, sum(windows.walls)))
    _check_join(scenario, result)
    result.scenario = scenario
    return result


def _check_join(scenario: JoinScenario, result: Pass) -> None:
    """In-run oracle: a joiner that got through must have settled on a
    sane final RTT, somebody must have got through, and nothing may fail
    to decode or be misdelivered.  A trial with no reply at all is a
    legitimate simulated outcome — a UFL joiner whose ring neighbours sit
    behind the same non-hairpin NAT waits out the ~155 s URI back-off
    ladder of Fig. 4 — so it goes into the digest, not into ``problems``.
    (Comparing digests across wire modes and across runs needs a second
    run: see ``first_trial_digest`` and ``python -m benchmarks.ledger``.)"""
    problems = result.problems
    for case, first, _shortcut, final, _lost in scenario.outcomes:
        if first >= 0 and not 0.0 < final < 1.0:
            problems.append(f"{case}: replies from seq {first} on but a "
                            f"final RTT of {final} s")
    if not scenario.replied:
        problems.append("no joiner ever got a reply")
    for key in ("wire.decode_error", "ipop.ip_misdelivered"):
        if result.counters[key]:
            problems.append(f"{key} = {result.counters[key]:.0f}")


def first_trial_digest(seed: int, seconds: float, wire_mode: str) -> str:
    """The outcome digest of the first join trial in ``wire_mode``, run
    untimed — to hold another wire mode's trajectory against."""
    scenario = JoinScenario(seed, wire_mode)
    sim = scenario.sim
    events0 = sim.events_processed
    scenario.trial(0, max(20, round(ECHOES_PER_SECOND * seconds)),
                   lambda end: sim.run(until=end))
    return scenario.digest(sim.events_processed - events0)


# ---------------------------------------------------------------------------
# sim_ring_3k
# ---------------------------------------------------------------------------
class Probe:
    """The benchmark's own routed payload (travels by reference)."""

    __slots__ = ("ident",)

    def __init__(self, ident: int):
        self.ident = ident


class RingScenario:
    """A warm-started, settled ring on the kernel and config that
    ``scaling_10k.measure_point`` uses, built through that module's own
    names."""

    SHARDS = 8
    LOOKAHEAD = 0.002
    K_FAR = 4

    def __init__(self, seed: int):
        n = RING_NODES
        t0 = perf_counter()
        self.kernel = kernel = scaling_10k.ShardedKernel(
            seed=seed, shards=self.SHARDS, lookahead=self.LOOKAHEAD,
            trace=False)
        self.nodes: list = []
        kernel.obs.scale_to(n, nodes_fn=lambda: [x for x in self.nodes
                                                 if x.active])
        config = scaling_10k.BrunetConfig(batch_timers=True)
        self.internet, built = scaling_10k.build_warm_overlay(
            kernel, n, config, k_far=self.K_FAR)
        self.nodes.extend(built)
        kernel.run(until=RING_SETTLE)
        self.setup_s = perf_counter() - t0
        self.rng = np.random.default_rng(seed)
        self.sent = 0
        self.dest_of: dict[int, object] = {}
        self.delivered: set[int] = set()
        self.wrong = 0
        for node in self.nodes:
            node.payload_handlers[Probe] = self._on_probe

    def _on_probe(self, pkt) -> None:
        ident = pkt.payload.ident
        if self.dest_of.get(ident) != pkt.dest or ident in self.delivered:
            self.wrong += 1
        self.delivered.add(ident)

    def inject(self, count: int) -> None:
        """Schedule ``count`` probes between seeded random pairs over the
        first half of the coming simulated second, each on its source
        node's own shard."""
        kernel, nodes = self.kernel, self.nodes
        now = kernel.now
        for j in range(count):
            a, b = self.rng.choice(len(nodes), size=2, replace=False)
            src, dst = nodes[int(a)], nodes[int(b)]
            ident = self.sent
            self.sent += 1
            self.dest_of[ident] = dst.addr
            shard = kernel.shard(kernel.shard_index(int(src.addr)))
            shard.schedule_at(now + 0.5 * j / count, src.send_routed,
                              dst.addr, Probe(ident), 64)

    def stat(self, key: str) -> int:
        return sum(n.stats[key] for n in self.nodes)


def run_ring(seed: int, seconds: float, tracer=None) -> Pass:
    """One pass of ``sim_ring_3k``.  With a ``tracer`` the first half of
    the windows runs untraced and the second half with shims and the
    kernel profiler installed on the same ring (building 3000 nodes twice
    would double the run); ``Pass.cost_x`` is then the untraced half and
    ``Pass.traced`` carries the other."""
    scenario = RingScenario(seed)
    kernel, internet = scenario.kernel, scenario.internet
    n_windows = max(20, round(RING_WINDOWS_PER_SECOND * seconds))
    phys0 = (internet.delivered, sum(internet.drops.values()))
    bad0 = scenario.stat("undeliverable") + scenario.stat("ttl_drop")
    rounds0, cross0 = kernel.rounds, kernel.cross_shard
    t_begin = kernel.now

    def measure(count: int) -> _Windows:
        windows = _Windows(kernel)
        for _ in range(count):
            scenario.inject(RING_PROBES)
            windows.run(kernel.now + RING_WINDOW)
        return windows

    traced = None
    if tracer is None:
        windows = measure(paired.WARMUP + n_windows)
    else:
        windows = measure(paired.WARMUP + n_windows // 2)
        tracer.install()
        kernel.profiler = kernel.obs.enable_profiler(stride=1)
        try:
            traced = measure(paired.WARMUP + n_windows // 2)
        finally:
            tracer.uninstall()
            kernel.profiler = None
    sim_s = kernel.now - t_begin
    kernel.run(until=kernel.now + 1.0)   # probes still in flight land

    delivered = len(scenario.delivered)
    result = windows.finish(scenario.setup_s, scenario.sent, delivered)
    if traced is not None:
        result.traced = traced.finish(scenario.setup_s, 0, 0)
        result.counters.update(_profile_shares(kernel.obs.profiler,
                                               sum(traced.walls)))
    ids = sorted(scenario.delivered)
    result.digest = hashlib.sha256(
        repr((ids, sum(windows.events))).encode()).hexdigest()[:16]
    sums = _snapshot_sums(kernel.obs.metrics)
    result.counters.update(_overlay_counters(scenario.nodes, sums))
    result.counters.update(_phys_counters(internet, sums, phys0, sim_s))
    datagrams = internet.delivered - phys0[0]
    result.counters.update({
        "sim.rounds_per_sim_s": (kernel.rounds - rounds0) / sim_s,
        "sim.cross_shard_frac": (kernel.cross_shard - cross0)
        / max(datagrams, 1),
        "sim.heap_compactions": float(sum(s.compactions
                                          for s in kernel.shards)),
        "obs.series_count": float(len(kernel.obs.metrics.snapshot())),
    })
    # oracle: a probe may vanish only where the physical model dropped a
    # datagram; routing must never strand or expire one
    dropped = sum(internet.drops.values()) - phys0[1]
    stranded = (scenario.stat("undeliverable") + scenario.stat("ttl_drop")
                - bad0)
    problems = result.problems
    if scenario.wrong:
        problems.append(f"{scenario.wrong} probes delivered to the wrong "
                        f"node or twice")
    if stranded:
        problems.append(f"{stranded} packets undeliverable or out of TTL")
    if scenario.sent - delivered > dropped:
        problems.append(f"{scenario.sent - delivered} probes undelivered "
                        f"but only {dropped} datagrams dropped")
    if result.counters["wire.decode_error"]:
        problems.append("wire.decode_error > 0")
    return result
