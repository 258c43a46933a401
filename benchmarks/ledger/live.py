"""The three live workloads: real UDP sockets on the host loopback.

Unmodified ``BrunetNode`` + ``IpopRouter`` objects run over
``UdpTransport`` and a ``RealtimeKernel`` inside this process's asyncio
loop (the same wiring as ``repro.apps.udp_demo``), so a virtual-IP packet
pays the whole datapath: ``ipop`` encap -> ``brunet.route`` -> ``wire``
encode -> ``sendto`` -> kernel -> asyncio -> ``wire`` decode ->
``brunet.route`` -> ``ipop`` decap.  Every loop is closed: one client
that waits for its reply.  Traffic never leaves loopback.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
from time import perf_counter

from repro.brunet.config import BrunetConfig
from repro.brunet.node import BrunetNode
from repro.brunet.routing import trace_route
from repro.ipop.ippacket import IcmpEcho
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.ipop.vtcp import VtcpStack
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport

from benchmarks.ledger import paired
from benchmarks.ledger.common import Pass, OracleError, peak_rss_mb
from benchmarks.ledger.ref import UdpEcho, host_speed_s

#: measured windows per pass (after the warm-up windows)
WINDOWS = 20
#: raw reference echoes sent before every stream burst
ECHOES_PER_BURST = 4
#: set-ups timed per pass; ``setup_s`` is their median
SETUP_REPEATS = 3
#: the interactive-demo protocol timers of ``repro.apps.udp_demo``; the
#: paper's conservative constants would spend the run waiting to link
LIVE_TIMERS = dict(link_resend_interval=0.5, overlord_interval=0.5,
                   ping_interval=2.0, wire_mode="codec")
ECHO_DATA = 56
SEGMENT_BYTES = 1400
#: messages the stream sender queues per burst (VTCP keeps 8 in flight)
QUEUE_DEPTH = 32
RELAY_NODES = 8
RELAY_HOPS = 4


class Overlay:
    """N in-process nodes on loopback UDP sockets."""

    def __init__(self, kernel: RealtimeKernel):
        self.kernel = kernel
        self.nodes: list[BrunetNode] = []
        self.routers: list[IpopRouter] = []
        self.transports: list[UdpTransport] = []
        self.vips: list[str] = []

    @classmethod
    async def start(cls, vips: list[str], config: BrunetConfig, seed: int,
                    tracer=None, timeout: float = 30.0) -> "Overlay":
        """Bind, start and wait until every node holds a near link.
        ``vips[0]`` seeds the overlay; every other node bootstraps off
        the node before it in ``vips``."""
        self = cls(RealtimeKernel(seed=seed))
        try:
            for i, vip in enumerate(vips):
                transport = await UdpTransport.create(
                    self.kernel, "127.0.0.1", 0, name=f"n{i}")
                self.transports.append(transport)
                node = BrunetNode(self.kernel, None, addr_for_ip(vip), config,
                                  transport=transport, name=f"n{i}")
                self.nodes.append(node)
                self.routers.append(IpopRouter(node, vip))
                self.vips.append(vip)
                if tracer is not None:
                    node.ip_handler = tracer.wrap("ipop.ip_handler",
                                                  node.ip_handler)
            self.nodes[0].start([])
            for i, node in enumerate(self.nodes[1:]):
                node.start([self.transports[i].local_uri])
            await self.wait(lambda: all(n.in_ring for n in self.nodes),
                            timeout, "ring formation")
        except BaseException:
            self.close()
            raise
        return self

    async def wait(self, predicate, timeout: float, what: str) -> None:
        deadline = perf_counter() + timeout
        while not predicate():
            if perf_counter() > deadline:
                raise OracleError(f"{what} did not finish in {timeout:.0f} s")
            await asyncio.sleep(0.005)

    def counter_sum(self, name: str) -> float:
        metrics = self.kernel.obs.metrics
        return sum(metrics.counter(name, node=n.name).value
                   for n in self.nodes)

    def close(self) -> None:
        for node in self.nodes:
            node.stop()
        for transport in self.transports:
            transport.close()


# ---------------------------------------------------------------------------
# set-up, one function per topology
# ---------------------------------------------------------------------------
def _vips(seed: int, count: int) -> list[str]:
    """``count`` distinct virtual IPs drawn from the seed: each IP hashes
    to its own ring position, so the seed picks the ring layout."""
    rng = random.Random(seed)
    hosts = rng.sample(range(2, 250), count)
    return [f"10.128.{seed % 200}.{h}" for h in hosts]


async def setup_direct(seed: int, tracer=None):
    """Two nodes, one near link: zero transit hops."""
    overlay = await Overlay.start(_vips(seed, 2), BrunetConfig(**LIVE_TIMERS),
                                  seed, tracer)
    return overlay, 0, 1


async def setup_relay(seed: int, tracer=None):
    """Eight nodes with no far links and no shortcuts, each bootstrapping
    off its ring predecessor, so every leaf link coincides with a near
    link and the overlay is a pure near-link cycle.  Returns ring-antipodal
    endpoints: exactly four overlay hops each way, six of eight node
    visits in transit."""
    config = BrunetConfig(far_count=0, shortcuts_enabled=False, **LIVE_TIMERS)
    vips = sorted(_vips(seed, RELAY_NODES), key=lambda ip: int(addr_for_ip(ip)))
    overlay = await Overlay.start(vips, config, seed, tracer)
    try:
        await overlay.wait(lambda: _is_cycle(overlay.nodes), 30.0,
                           "near-link cycle")
        src, dst = 0, RELAY_NODES // 2
        registry = {n.addr: n for n in overlay.nodes}
        for a, b in ((src, dst), (dst, src)):
            path = trace_route(overlay.nodes[a], overlay.nodes[b].addr,
                               registry.get)
            hops = None if path is None else len(path) - 1
            if hops != RELAY_HOPS:
                raise OracleError(f"relay path n{a}->n{b} is {hops} hops, "
                                  f"expected {RELAY_HOPS}")
    except BaseException:
        overlay.close()
        raise
    return overlay, src, dst


def _is_cycle(nodes: list[BrunetNode]) -> bool:
    """Every node linked to exactly its two ring neighbours."""
    ring = sorted(nodes, key=lambda n: int(n.addr))
    n = len(ring)
    for i, node in enumerate(ring):
        want = {ring[(i - 1) % n].addr, ring[(i + 1) % n].addr}
        if {c.peer_addr for c in node.table.all()} != want:
            return False
    return True


# ---------------------------------------------------------------------------
# closed-loop drivers
# ---------------------------------------------------------------------------
class Pinger:
    """One outstanding virtual-IP ICMP echo; a fresh ``seq`` every time,
    so no frame ever repeats."""

    def __init__(self, overlay: Overlay, src: int, dst: int, seed: int,
                 tracer=None):
        self.router = overlay.routers[src]
        self.dst_ip = overlay.vips[dst]
        self.tracer = tracer
        # IcmpEcho.seq is 32 bits on the wire: start in the lower half,
        # whatever the seed, so a run's echoes never reach the top
        self.seq = seed * 1_000_003 % (1 << 31)
        self.waiter: asyncio.Future | None = None
        self.sent = 0
        self.delivered = 0
        self.wrong = 0
        #: (seq, rtt seconds) of every echo of a traced pass
        self.log: list[tuple[int, float]] = []
        self.router.bind("icmp", 0, self._on_reply)

    async def prepare(self, overlay: Overlay) -> None:
        """Nothing to connect: ICMP is answered by the router itself."""

    def _on_reply(self, pkt) -> None:
        now = perf_counter()
        echo = pkt.payload
        waiter = self.waiter
        if waiter is None or waiter.done():
            return
        if (not isinstance(echo, IcmpEcho) or not echo.is_reply
                or echo.seq != self.seq or echo.data_size != ECHO_DATA
                or pkt.src_ip != self.dst_ip):
            self.wrong += 1
            return
        self.waiter = None
        waiter.set_result(now)

    async def op(self) -> float:
        """One echo; returns its round-trip time in seconds."""
        self.seq = seq = self.seq + 1
        waiter = self.waiter = asyncio.get_running_loop().create_future()
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = seq
        self.sent += 1
        t0 = perf_counter()
        self.router.send_ip(self.dst_ip, "icmp", 0,
                            IcmpEcho(seq, False, t0, ECHO_DATA),
                            ECHO_DATA + 8)
        rtt = await waiter - t0
        self.delivered += 1
        if tracer is not None:
            self.log.append((seq, rtt))
        return rtt

    #: reference echoes before each operation, operations per ``op()``
    refs_per_op, ops_per_call = 1, 1


class Streamer:
    """A VTCP socket pair.  One operation is a burst: the sender queues
    :data:`QUEUE_DEPTH` messages using only ``send()``, VTCP moves them
    with its window of 8 (DATA one way, ACK back), and the burst ends
    when the receiver's ``on_message`` has counted them all."""

    def __init__(self, overlay: Overlay, src: int, dst: int, seed: int,
                 tracer=None):
        rng = random.Random(seed)
        #: message bodies; each send prefixes its sequence number so every
        #: segment on the wire is unique
        self.bodies = [rng.randbytes(SEGMENT_BYTES - 8) for _ in range(16)]
        self.sender = VtcpStack(overlay.routers[src]).socket(5000)
        self.receiver = VtcpStack(overlay.routers[dst]).socket(
            5001, on_message=self._on_message)
        self.peer = (overlay.vips[dst], 5001)
        self.sent = 0
        self.delivered = 0
        self.wrong = 0
        self.drained: asyncio.Future | None = None
        self.log: list[tuple[int, float]] = []

    async def prepare(self, overlay: Overlay) -> None:
        self.receiver.listen()
        self.sender.connect(*self.peer)
        await overlay.wait(
            lambda: self.sender.state == self.receiver.state == "ESTABLISHED",
            10.0, "vtcp handshake")

    def _message(self, n: int) -> bytes:
        return n.to_bytes(8, "big") + self.bodies[n % len(self.bodies)]

    def _on_message(self, message) -> None:
        if message != self._message(self.delivered):
            self.wrong += 1
        self.delivered += 1
        if self.delivered == self.sent and self.drained is not None:
            self.drained.set_result(perf_counter())
            self.drained = None

    async def op(self) -> float:
        """One burst; returns wall seconds per segment delivered in order."""
        self.drained = asyncio.get_running_loop().create_future()
        t0 = perf_counter()
        for _ in range(QUEUE_DEPTH):
            self.sender.send(self._message(self.sent), SEGMENT_BYTES)
            self.sent += 1
        return (await self.drained - t0) / QUEUE_DEPTH

    refs_per_op, ops_per_call = ECHOES_PER_BURST, QUEUE_DEPTH


async def window(driver, echo: UdpEcho, seconds: float
                 ) -> tuple[list[float], list[float]]:
    """Alternate reference echoes and overlay operations for ``seconds``;
    returns (operation costs, reference RTTs).  Interleaving at the grain
    of one operation is what makes the ratio repeat: the host's speed
    moves within tenths of a second, so a reference taken even 0.1 s away
    from its measurement sees another machine.  An operation unanswered
    one second past the window fails the workload."""
    costs: list[float] = []
    refs: list[float] = []
    repeats = range(driver.refs_per_op)
    deadline = perf_counter() + seconds
    try:
        async with asyncio.timeout(seconds + 1.0):
            while perf_counter() < deadline:
                for _ in repeats:
                    refs.append(await echo.once())
                costs.append(await driver.op())
    except TimeoutError:
        raise OracleError(
            f"operation {driver.sent} unanswered "
            f"({driver.sent - driver.delivered} outstanding)") from None
    return costs, refs


# ---------------------------------------------------------------------------
# one measured pass
# ---------------------------------------------------------------------------
SETUPS = {"live_ping_direct": setup_direct, "live_ping_relay": setup_relay,
          "live_stream_vtcp": setup_direct}


async def _timed_setup(workload: str, seed: int, tracer, repeats: int):
    """Set up ``repeats`` times (tearing down all but the last); returns
    (overlay, src, dst, median set-up seconds)."""
    times = []
    for i in range(repeats):
        t0 = perf_counter()
        overlay, src, dst = await SETUPS[workload](seed, tracer)
        times.append(perf_counter() - t0)
        if i < repeats - 1:
            overlay.close()
            await asyncio.sleep(0)
    return overlay, src, dst, statistics.median(times)


async def _run_pass(workload: str, seed: int, seconds: float, tracer,
                    setup_repeats: int) -> Pass:
    overlay, src, dst, setup_s = await _timed_setup(workload, seed, tracer,
                                                    setup_repeats)
    echo = await UdpEcho.create()
    try:
        streaming = workload == "live_stream_vtcp"
        driver = (Streamer if streaming else Pinger)(overlay, src, dst, seed,
                                                     tracer)
        t0 = perf_counter()
        await driver.prepare(overlay)
        setup_s += perf_counter() - t0
        setup_ref_s = host_speed_s()
        slots = paired.WARMUP + WINDOWS
        before = _Counts(overlay, src, dst)
        gc.collect()    # set-up's garbage is not the measured phase's
        t_begin = perf_counter()

        cost: list[float] = []      # per window: p50 cost / p50 reference
        tail: list[float] = []      # per window: p90 cost / p50 reference
        kept_costs: list[float] = []
        kept_refs: list[float] = []
        for i in range(slots):
            costs, refs = await window(driver, echo, seconds / slots)
            ref = statistics.median(refs)
            cost.append(statistics.median(costs) / ref)
            tail.append(paired.quantile(costs, 0.9) / ref)
            if i >= paired.WARMUP:
                kept_costs.extend(costs)
                kept_refs.extend(refs)
        wall_s = perf_counter() - t_begin

        cost, tail = cost[paired.WARMUP:], tail[paired.WARMUP:]
        ops = len(kept_costs) * driver.ops_per_call
        result = Pass(
            setup_s=setup_s, setup_ref_s=setup_ref_s,
            cost_x=statistics.median(cost),
            tail_x=statistics.median(tail),
            se_frac={"cost_x": paired.median_se_frac(cost),
                     "tail_x": paired.median_se_frac(tail)},
            attempted=driver.sent, delivered=driver.delivered,
            ops=ops)
        delta = _Counts(overlay, src, dst).minus(before)
        result.abs.update({
            "ref.udp_echo_rtt_us": statistics.median(kept_refs) * 1e6,
            "abs.wall_s": wall_s,
            "abs.ops_total": float(ops),
            "abs.pkts_per_s": delta.sendto / wall_s,
            "abs.delivered_frac": result.delivered / max(result.attempted, 1),
        })
        if streaming:
            per_seg = statistics.median(kept_costs)
            result.abs["abs.goodput_mbps"] = SEGMENT_BYTES / per_seg / 1e6
        else:
            result.abs["abs.rtt_p50_us"] = statistics.median(kept_costs) * 1e6
            result.abs["abs.rtt_p99_us"] = (
                paired.quantile(kept_costs, 0.99) * 1e6)
        result.op_log = driver.log
        _count_and_check(workload, overlay, driver, delta, wall_s, result)
        return result
    finally:
        echo.close()
        overlay.close()
        # let the closed sockets' callbacks run before the loop ends
        await asyncio.sleep(0)


class _Counts:
    """Public counters of the overlay, summed over nodes, at one moment."""

    def __init__(self, overlay: Overlay, src: int, dst: int):
        metrics = overlay.kernel.obs.metrics
        self.sendto = sum(t.sent for t in overlay.transports)
        self.timers = overlay.kernel.events_processed
        self.forwarded = sum(n.stats["forwarded"] for n in overlay.nodes)
        self.encap = overlay.counter_sum("ipop.encap_packets")
        self.opaque = overlay.counter_sum("wire.opaque_frames")
        hists = [metrics.histogram("brunet.route.hops",
                                   node=overlay.nodes[i].name)
                 for i in (src, dst)]
        self.end_deliveries = sum(h.count for h in hists)
        self.end_hops = sum(h.total for h in hists)

    def minus(self, other: "_Counts") -> "_Counts":
        for key, value in vars(other).items():
            setattr(self, key, getattr(self, key) - value)
        return self


def _count_and_check(workload: str, overlay: Overlay, driver, delta: _Counts,
                     wall_s: float, result: Pass) -> None:
    """Counters read from public program state, then the output oracles:
    on loopback nothing may be lost, retransmitted, misdelivered or
    undecodable, and the relay path must really be four hops."""
    ops = max(result.attempted, 1)
    metrics = overlay.kernel.obs.metrics
    decode_errors = overlay.counter_sum("wire.decode_error")
    misdelivered = sum(n.stats["ip_misdelivered"] for n in overlay.nodes)
    hops_per_pkt = delta.end_hops / max(delta.end_deliveries, 1)
    retx = 0
    if isinstance(driver, Streamer):
        retx = driver.sender.retransmissions + driver.receiver.retransmissions
        result.counters["ipop.vtcp_pkts_per_seg"] = delta.encap / ops
    result.counters.update({
        "wire.decode_error": decode_errors,
        "wire.opaque_per_op": delta.opaque / ops,
        "transport.socket_error": overlay.counter_sum("wire.socket_error"),
        "transport.sendto_per_op": delta.sendto / ops,
        "transport.rt_timers_per_s": delta.timers / wall_s,
        "brunet.hops_per_pkt": hops_per_pkt,
        "brunet.forwarded_per_op": delta.forwarded / ops,
        "brunet.link_attempts": overlay.counter_sum("linking.attempts"),
        "brunet.ctm_sent": sum(n.stats["ctm_sent"] for n in overlay.nodes),
        "ipop.encap_packets_per_op": delta.encap / ops,
        "ipop.vtcp_retx": retx,
        "ipop.ip_misdelivered": misdelivered,
        "obs.series_count": len(metrics.snapshot()),
        "core.rss_per_node_kb": peak_rss_mb() * 1024 / len(overlay.nodes),
    })
    problems = result.problems
    if decode_errors:
        problems.append(f"wire.decode_error = {decode_errors:.0f}")
    if misdelivered:
        problems.append(f"ipop.ip_misdelivered = {misdelivered}")
    if retx:
        problems.append(f"{retx} VTCP retransmissions on loopback")
    if driver.wrong:
        problems.append(f"{driver.wrong} wrong payloads delivered")
    if result.delivered != result.attempted:
        problems.append(f"{result.attempted - result.delivered} of "
                        f"{result.attempted} operations unanswered")
    want_hops = RELAY_HOPS if workload == "live_ping_relay" else 1
    if abs(hops_per_pkt - want_hops) > 0.02:
        problems.append(f"{hops_per_pkt:.3f} overlay hops per delivered "
                        f"packet, expected {want_hops}")


def run_pass(workload: str, seed: int, seconds: float, tracer=None,
             setup_repeats: int = SETUP_REPEATS) -> Pass:
    """Set up ``workload``, measure it for about ``seconds`` and tear it
    down, all inside one fresh event loop."""
    return asyncio.run(_run_pass(workload, seed, seconds, tracer,
                                 setup_repeats))
