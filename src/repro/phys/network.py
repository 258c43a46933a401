"""The simulated internet: datagram routing across sites and NAT chains.

Outbound, a packet walks its source host's NAT chain from the innermost
device: at each NAT it is either (a) delivered inside that NAT's scope,
(b) hairpinned (or dropped, if the NAT does not support hairpin — the UFL
behaviour central to Fig. 4), or (c) source-translated and pushed outward.
At the public core the destination is resolved — possibly descending through
the *destination's* NAT chain with filtering checks — and delivery is
scheduled after a sampled latency, unless the loss model drops the packet.

Every drop is counted by reason; the Fig. 4/5 experiments read ICMP loss
straight off these mechanics.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.phys.endpoints import Endpoint
from repro.phys.latency import LatencyModel
from repro.phys.packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host
    from repro.phys.nat import Nat
    from repro.sim.engine import Simulator


class Internet:
    """Routes datagrams between hosts; owns the latency/loss model."""

    def __init__(self, sim: "Simulator",
                 latency_model: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency_model or LatencyModel(
            sim.rng.stream("phys.latency"))
        self.hosts_by_ip: dict[str, "Host"] = {}
        self.nats_by_ip: dict[str, "Nat"] = {}
        #: active fault-injection rules (see :mod:`repro.fault.rules`);
        #: consulted after NAT traversal, before the loss model
        self.fault_rules: list = []
        self.drops: Counter = Counter()
        self.delivered = 0
        self._public_net = 0
        self._public_host = 0
        # drop/delivery tallies surface as metrics only at export time
        sim.obs.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, m) -> None:
        m.gauge("phys.delivered").set(self.delivered)
        for reason, n in self.drops.items():
            m.gauge("phys.drops", reason=reason).set(n)

    # -- registration ----------------------------------------------------
    def register_host(self, host: "Host") -> None:
        """Make ``host.ip`` routable (called by Host.__init__)."""
        if host.ip in self.hosts_by_ip:
            raise ValueError(f"duplicate IP {host.ip}")
        self.hosts_by_ip[host.ip] = host

    def unregister_host(self, host: "Host") -> None:
        """Remove the host's IP from the routing table (migration)."""
        self.hosts_by_ip.pop(host.ip, None)

    def register_nat(self, nat: "Nat") -> None:
        """Make a NAT's public IP resolvable for inbound descent."""
        if nat.public_ip in self.nats_by_ip:
            raise ValueError(f"duplicate NAT public IP {nat.public_ip}")
        self.nats_by_ip[nat.public_ip] = nat
        metrics = self.sim.obs.metrics
        metrics.gauge_fn("nat.mappings_live", nat.live_mappings,
                         nat=nat.name)
        metrics.add_collector(
            lambda m, nat=nat: [
                m.gauge("nat.drops", nat=nat.name, reason=reason).set(n)
                for reason, n in nat.drops.items()])

    def add_fault_rule(self, rule) -> None:
        """Install a path-fault rule (see :mod:`repro.fault.rules`)."""
        self.fault_rules.append(rule)

    def remove_fault_rule(self, rule) -> None:
        """Lift a previously installed fault rule (idempotent)."""
        if rule in self.fault_rules:
            self.fault_rules.remove(rule)

    def allocate_public_ip(self) -> str:
        """A fresh globally-routable address (for NAT devices)."""
        self._public_host += 1
        return f"128.0.{self._public_host // 250}.{self._public_host % 250 + 2}"

    def allocate_public_prefix(self) -> str:
        """A fresh /24-style prefix for a public site."""
        self._public_net += 1
        return f"150.{self._public_net}.0."

    # -- sending ----------------------------------------------------------
    def send(self, src_host: "Host", dgram: Datagram) -> None:
        """Route one datagram.  Never raises for network-level failures —
        packets silently vanish with a counted reason, like real UDP."""
        if self.sim.obs.spans.enabled and dgram.trace is None:
            # lift the causal context off the payload message (if any) so
            # NAT traversal and the transit span attach to the right trace;
            # codec-mode transports attach it explicitly instead (the
            # payload is then opaque bytes with no ``trace`` attribute)
            dgram.trace = getattr(dgram.payload, "trace", None)
        proto = dgram.proto
        for nat in src_host.nat_chain:
            if nat.is_inside(dgram.dst.ip):
                # stays within this NAT's scope — no translation at/above it
                dgram.hop(f"lan:{nat.name}")
                self._resolve_and_schedule(src_host, dgram, trusted=True)
                return
            public_src = nat.translate_outbound(proto, dgram.src, dgram.dst)
            if dgram.dst.ip == nat.public_ip:
                if not nat.spec.hairpin:
                    nat.drops["hairpin"] += 1
                    self._drop(dgram, f"hairpin:{nat.name}")
                    return
                inner = nat.translate_inbound(proto, dgram.dst.port,
                                              public_src)
                if inner is None:
                    self._drop(dgram, f"filtering:{nat.name}")
                    return
                dgram.src = public_src
                dgram.dst = inner
                dgram.hop(f"hairpin:{nat.name}")
                self._resolve_and_schedule(src_host, dgram, trusted=True)
                return
            dgram.src = public_src
            dgram.hop(f"snat:{nat.name}")
        self._resolve_and_schedule(src_host, dgram)

    # -- destination resolution ------------------------------------------
    def _resolve_and_schedule(self, src_host: "Host", dgram: Datagram,
                              trusted: bool = False) -> None:
        """Deliver toward the destination, descending through its NATs.

        ``trusted`` marks packets that legitimately entered a private scope
        (intra-site delivery, hairpin translation).  Untrusted packets from
        the public core addressed straight at a private (NATed) host are
        unroutable — private URIs only work from inside (§IV-D).
        """
        # descend through destination NATs
        seen = 0
        while True:
            nat = self.nats_by_ip.get(dgram.dst.ip)
            if nat is None:
                break
            seen += 1
            if seen > 8:  # pragma: no cover - defensive
                self._drop(dgram, "nat-loop")
                return
            inner = nat.translate_inbound(dgram.proto, dgram.dst.port,
                                          dgram.src)
            if inner is None:
                self._drop(dgram, f"filtering:{nat.name}")
                return
            dgram.dst = inner
            dgram.hop(f"dnat:{nat.name}")
            trusted = True  # the NAT mapping vouches for the inner hop

        host = self.hosts_by_ip.get(dgram.dst.ip)
        if host is None or not host.up:
            self._drop(dgram, "unroutable")
            return
        if not trusted and host.nat_chain:
            self._drop(dgram, "private-unroutable")
            return
        fw = host.site.firewall
        if fw is not None and src_host.site is not host.site \
                and not fw.allows_inbound(dgram.dst.port):
            self._drop(dgram, f"firewall:{host.site.name}")
            return
        for rule in self.fault_rules:
            if rule.drops(src_host, host):
                self._drop(dgram, f"fault:{rule.name}")
                return
        delay = self.latency.sample(src_host, host)
        if delay is None:
            self._drop(dgram, "loss")
            return
        if dgram.trace is not None:
            dgram.span = self.sim.obs.spans.start(
                "phys.tx", node=src_host.name, t=self.sim.now,
                trace_id=dgram.trace.trace_id, parent=dgram.trace.parent,
                dst=str(dgram.dst), size=dgram.size,
                path=">".join(dgram.path) or "direct")
        self._schedule_delivery(delay, host, dgram)

    def _schedule_delivery(self, delay: float, host: "Host",
                           dgram: Datagram) -> None:
        """Schedule the final delivery event — the kernel seam.  The
        default plants it on this internet's own simulator; a sharded
        kernel (:class:`repro.sim.shards.ShardedKernel`) overrides the
        bound method per instance to route the event onto the shard that
        owns the destination host, clamping cross-shard delays to the
        lookahead window."""
        self.sim.schedule(delay, self._deliver, host, dgram)

    def _deliver(self, host: "Host", dgram: Datagram) -> None:
        if not host.up:
            self._drop(dgram, "host-down")
            return
        self.delivered += 1
        if dgram.span is not None:
            self.sim.obs.spans.end(dgram.span, self.sim.now)
            # downstream hops at the receiving node parent at the transit
            dgram.trace.parent = dgram.span
        port = dgram.dst.port
        if host.allowed_ports is not None and port not in host.allowed_ports:
            return
        sock = host.sockets.get(port)
        if sock is None or sock.closed:
            return
        sock.received += 1
        if sock.dgram_handler is not None:
            sock.dgram_handler(dgram)
        else:
            sock.handler(dgram.payload, dgram.src, dgram.size)

    def _drop(self, dgram: Datagram, reason: str) -> None:
        self.drops[reason] += 1
        sim = self.sim
        if dgram.trace is not None:
            sim.obs.spans.event(
                "phys.drop", node="", t=sim.now,
                trace_id=dgram.trace.trace_id, parent=dgram.trace.parent,
                reason=reason, dst=str(dgram.dst),
                path=">".join(dgram.path) or "direct")
            if dgram.span is not None:
                sim.obs.spans.end(dgram.span, sim.now, dropped=reason)
        # guard before building the kwargs dict: drops are hot under
        # churn/loss and tracing is usually off in big sweeps
        if sim.trace_on:
            sim.trace("net.drop", reason=reason, dst=str(dgram.dst))

    # -- utilities -------------------------------------------------------
    def host_for_ip(self, ip: str) -> Optional["Host"]:
        """The host registered at ``ip``, if any."""
        return self.hosts_by_ip.get(ip)

    def reachable_endpoint(self, host: "Host") -> Endpoint:
        """The outermost public IP a fully-external peer would see for
        ``host`` (NAT public IP if NATed).  Port 0 placeholder."""
        if host.nat_chain:
            return Endpoint(host.nat_chain[-1].public_ip, 0)
        return Endpoint(host.ip, 0)
