"""Layer drills: one public function (or one small public flow) timed in
isolation, for the layers no end-to-end number isolates.

Every drill runs in every traced run, on synthetic inputs shaped like the
workloads' own (the codec drills encode the echo frame a ``live_ping_relay``
transit hop sees), and is bracketed by ``ref.des_kernel`` like everything
else: :func:`run` returns each drill's absolute cost and the same cost in
reference-kernel events.

The codec pair is the honest version of ``bench_wire_encode/decode``:
*unique* feeds the codec a message (frame) it has never seen, as the live
datapath does; *repeat* feeds it the same object (bytes) again, which its
memo caches answer.  Read them beside the ``wire.repeat_*_frac`` a traced
workload actually observed.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import statistics
import tempfile
from time import perf_counter

from repro.brunet.address import BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.messages import IpEncap, RoutedPacket
from repro.brunet.node import BrunetNode
from repro.brunet.ring import RingIndex
from repro.brunet.table import ConnectionTable
from repro.check import Auditor
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.ipop.vtcp import VtcpStack
from repro.obs.metrics import MetricsRegistry
from repro.phys import Endpoint, Internet, Site
from repro.phys.nat import Nat, NatSpec
from repro.sim.engine import Simulator
from repro.transport.runtime import RealtimeKernel
from repro.wire import codec

from benchmarks.ledger.ref import DES_EVENTS, des_kernel

REPS = 5
_fresh = itertools.count(1)
_IPS = ("10.128.0.2", "10.128.0.3", "10.128.0.4", "10.128.0.5")


def _median_ns(run, ops: int) -> float:
    """Median over :data:`REPS` of ``run()`` seconds, as ns per op."""
    return statistics.median(run() for _ in range(REPS)) / ops * 1e9


def _noop() -> None:
    pass


# -- wire -----------------------------------------------------------------
def _relay_echo() -> RoutedPacket:
    """The frame a relay transit hop forwards: a routed, tunnelled ICMP
    echo two hops into its path, with a never-seen ``seq``."""
    seq = next(_fresh)
    a, b, c, d = (addr_for_ip(ip) for ip in _IPS)
    inner = VirtualIpPacket(_IPS[0], _IPS[3], "icmp", 0,
                            IcmpEcho(seq, False, seq * 1e-3, 56), 92)
    return RoutedPacket(src=a, dest=d, payload=IpEncap(inner, 92), size=92,
                        exact=True, ttl=32, hops=2, via=[a, b])


def wire_drills(n: int = 1000) -> dict[str, float]:
    def encode_unique() -> float:
        packets = [_relay_echo() for _ in range(n)]
        t0 = perf_counter()
        for p in packets:
            codec.encode(p)
        return perf_counter() - t0

    def encode_repeat() -> float:
        packet = _relay_echo()
        codec.encode(packet)
        t0 = perf_counter()
        for _ in range(n):
            codec.encode(packet)
        return perf_counter() - t0

    def decode_unique() -> float:
        frames = [codec.encode(_relay_echo()) for _ in range(n)]
        t0 = perf_counter()
        for f in frames:
            codec.materialize(codec.decode_lazy(f).payload)
        return perf_counter() - t0

    def decode_repeat() -> float:
        frame = codec.encode(_relay_echo())
        codec.materialize(codec.decode_lazy(frame).payload)
        t0 = perf_counter()
        for _ in range(n):
            codec.materialize(codec.decode_lazy(frame).payload)
        return perf_counter() - t0

    def peek() -> float:
        frames = [codec.encode(_relay_echo()) for _ in range(n)]
        t0 = perf_counter()
        for f in frames:
            codec.peek_header(f)
        return perf_counter() - t0

    return {"wire.encode_unique_ns": _median_ns(encode_unique, n),
            "wire.encode_repeat_ns": _median_ns(encode_repeat, n),
            "wire.decode_unique_ns": _median_ns(decode_unique, n),
            "wire.decode_repeat_ns": _median_ns(decode_repeat, n),
            "wire.peek_header_ns": _median_ns(peek, n)}


# -- transport / sim kernel --------------------------------------------------
def rt_schedule_ns(n: int = 2000) -> float:
    """``RealtimeKernel.schedule`` + cancel of one timer."""
    async def run() -> float:
        kernel = RealtimeKernel(seed=0)
        t0 = perf_counter()
        handles = [kernel.schedule(60.0, _noop) for _ in range(n)]
        for h in handles:
            h.cancel()
        return perf_counter() - t0

    return _median_ns(lambda: asyncio.run(run()), n)


def event_dispatch_ns(n: int = 20000) -> float:
    """Schedule and dispatch one no-op event on the plain simulator."""
    def run() -> float:
        sim = Simulator(seed=0, trace=False)
        t0 = perf_counter()
        for i in range(n):
            sim.schedule(i * 1e-3, _noop)
        sim.run()
        return perf_counter() - t0

    return _median_ns(run, n)


def timer_cancel_ns(n: int = 20000) -> float:
    """Schedule one timer and cancel it before it fires."""
    def run() -> float:
        sim = Simulator(seed=0, trace=False)
        t0 = perf_counter()
        for i in range(n):
            sim.schedule(1.0 + i * 1e-3, _noop).cancel()
        return perf_counter() - t0

    return _median_ns(run, n)


# -- brunet ---------------------------------------------------------------------
class _Pair:
    """Two sim nodes on one public site (no loss inside a site), in
    reference wire mode, with IPOP routers."""

    def __init__(self) -> None:
        self.sim = sim = Simulator(seed=1, trace=False)
        site = Site(Internet(sim), "pub")
        config = BrunetConfig()
        self.nodes, self.routers = [], []
        for i, ip in enumerate(_IPS[:2]):
            host = site.add_host(f"h{i}")
            node = BrunetNode(sim, host, addr_for_ip(ip), config, name=f"d{i}")
            self.nodes.append(node)
            self.routers.append(IpopRouter(node, ip))

    def link(self) -> float:
        """Start both nodes and run until each holds a near link;
        returns the wall seconds spent simulating (waits cost nothing)."""
        a, b = self.nodes
        a.start([])
        b.start([a.uris.local])
        wall = 0.0
        while not (a.in_ring and b.in_ring):
            if self.sim.now > 60.0:
                raise RuntimeError("drill pair never linked")
            t0 = perf_counter()
            self.sim.run(until=self.sim.now + 0.05)
            wall += perf_counter() - t0
        return wall


def link_handshake_us() -> float:
    """CPU time of one complete join between two public nodes: leaf link,
    CTM announce and reply, near-link handshake."""
    return statistics.median(_Pair().link() for _ in range(REPS)) * 1e6


def table_churn_ns(n: int = 2000) -> float:
    """Add then remove one connection in a 64-entry table."""
    me = BrunetAddress(1 << 100)
    table = ConnectionTable(me)
    ep = Endpoint("150.1.0.2", 14001)
    for i in range(64):
        table.add(Connection(BrunetAddress((i + 2) << 150), ep,
                             ConnectionType.STRUCTURED_FAR, 0.0))
    peers = [BrunetAddress((i << 90) + 7) for i in range(1, n + 1)]

    def run() -> float:
        t0 = perf_counter()
        for peer in peers:
            table.add(Connection(peer, ep, ConnectionType.STRUCTURED_NEAR,
                                 0.0))
            table.remove(peer)
        return perf_counter() - t0

    return _median_ns(run, n)


class _Item:
    def __init__(self, addr: int):
        self.addr = addr


def ring_lookup_ns(n: int = 2000) -> float:
    """``RingIndex.successor`` on a 3000-entry index."""
    step = (1 << 160) // 3000
    index = RingIndex.from_nodes(_Item(i * step + 11) for i in range(3000))
    probes = [(i * 2654435761 * step) % (1 << 160) for i in range(n)]

    def run() -> float:
        t0 = perf_counter()
        for p in probes:
            index.successor(p)
        return perf_counter() - t0

    return _median_ns(run, n)


# -- ipop -----------------------------------------------------------------------
def ipop_drills(echoes: int = 300, segments: int = 300) -> dict[str, float]:
    """Virtual-IP packets between two linked sim nodes (reference wire
    mode): ns per packet through encap -> route -> sim wire -> decap, for
    ICMP echoes and for VTCP segments (DATA one way, ACK back)."""
    pair = _Pair()
    pair.link()
    sim = pair.sim
    a, b = pair.routers
    replies: list = []
    a.bind("icmp", 0, replies.append)

    def echo_run() -> float:
        del replies[:]
        t0 = perf_counter()
        for _ in range(echoes):
            seq = next(_fresh)
            a.send_ip(_IPS[1], "icmp", 0, IcmpEcho(seq, False, sim.now), 64)
            sim.run(until=sim.now + 0.2)
        wall = perf_counter() - t0
        if len(replies) != echoes:
            raise RuntimeError(f"drill lost {echoes - len(replies)} echoes")
        return wall

    got: list = []
    sender = VtcpStack(a).socket(5000)
    receiver = VtcpStack(b).socket(5001, on_message=got.append)
    receiver.listen()
    sender.connect(_IPS[1], 5001)
    sim.run(until=sim.now + 2.0)
    body = bytes(1400)

    def segment_run() -> float:
        del got[:]
        t0 = perf_counter()
        for _ in range(segments):
            sender.send(body, 1400)
        while len(got) < segments:
            sim.run(until=sim.now + 0.2)
        return perf_counter() - t0

    return {"ipop.encap_decap_ns": _median_ns(echo_run, 2 * echoes),
            "ipop.vtcp_segment_ns": _median_ns(segment_run, segments)}


# -- phys / obs / check -----------------------------------------------------------
def nat_translate_ns(n: int = 2000) -> float:
    """One datagram out through a cone NAT and its answer back in."""
    nat = Nat("drill", "128.0.0.2", "10.9.", NatSpec.cone())
    inner = Endpoint("10.9.0.5", 14001)
    remotes = [Endpoint(f"150.1.0.{i + 2}", 14001) for i in range(64)]

    def run() -> float:
        t0 = perf_counter()
        for i in range(n):
            remote = remotes[i & 63]
            public = nat.translate_outbound("udp", inner, remote)
            nat.translate_inbound("udp", public.port, remote)
        return perf_counter() - t0

    return _median_ns(run, n)


def obs_drills(here: str) -> dict[str, float]:
    """One Prometheus export of a testbed-sized registry (150 nodes x 20
    series, written to a scratch file beside this module) and one
    ``Counter.inc``."""
    registry = MetricsRegistry()
    for node in range(150):
        for k in range(20):
            registry.counter(f"drill.series{k}", node=f"n{node}").inc(node + k)

    def export() -> float:
        fd, path = tempfile.mkstemp(prefix=".drill-", suffix=".prom",
                                    dir=here)
        os.close(fd)
        try:
            t0 = perf_counter()
            registry.export_prom(path)
            return perf_counter() - t0
        finally:
            os.unlink(path)

    counter = registry.counter("drill.hot", node="n0")
    n = 20000

    def inc() -> float:
        t0 = perf_counter()
        for _ in range(n):
            counter.inc()
        return perf_counter() - t0

    return {"obs.export_prom_ms": _median_ns(export, 1) / 1e6,
            "obs.counter_inc_ns": _median_ns(inc, n)}


def audit_pass_ms(scenario) -> float:
    """One full invariant pass over a warmed paper testbed."""
    dep = scenario.testbed.deployment
    auditor = Auditor(scenario.sim, lambda: list(dep.nodes_by_addr.values()),
                      internet=dep.internet)
    t0 = perf_counter()
    auditor.sweep()
    return (perf_counter() - t0) * 1e3


# -- runner ----------------------------------------------------------------------------
def run(join_scenario=None) -> tuple[dict[str, float], dict[str, float]]:
    """Every drill, each bracketed by two ``des_kernel`` runs.  Returns
    (absolute values by metric name, the same costs in reference-kernel
    events).  ``check.audit_pass_ms`` needs a warmed testbed and is only
    produced when ``join_scenario`` is given."""
    here = os.path.dirname(os.path.abspath(__file__))
    groups = [
        wire_drills,
        lambda: {"transport.rt_schedule_ns": rt_schedule_ns()},
        lambda: {"sim.event_dispatch_ns": event_dispatch_ns()},
        lambda: {"sim.timer_cancel_ns": timer_cancel_ns()},
        lambda: {"brunet.link_handshake_us": link_handshake_us()},
        lambda: {"brunet.table_churn_ns": table_churn_ns()},
        lambda: {"brunet.ring_lookup_ns": ring_lookup_ns()},
        ipop_drills,
        lambda: {"phys.nat_translate_ns": nat_translate_ns()},
        lambda: obs_drills(here),
    ]
    if join_scenario is not None:
        groups.append(
            lambda: {"check.audit_pass_ms": audit_pass_ms(join_scenario)})
    ns_per = {"ns": 1.0, "us": 1e3, "ms": 1e6}
    values: dict[str, float] = {}
    in_ref_events: dict[str, float] = {}
    before = des_kernel()
    for group in groups:
        got = group()
        after = des_kernel()
        ref_event_ns = (before + after) / 2 / DES_EVENTS * 1e9
        for name, value in got.items():
            values[name] = value
            in_ref_events[name] = (value * ns_per[name.rsplit("_", 1)[1]]
                                   / ref_event_ns)
        before = after
    return values, in_ref_events
