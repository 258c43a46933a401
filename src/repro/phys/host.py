"""Physical hosts: network stack endpoint + CPU model.

A :class:`Host` owns one primary IP, sits in a :class:`~repro.phys.topology.Site`,
optionally behind a chain of NATs (innermost first — e.g. ``[vmware_nat,
campus_nat]``), and exposes a UDP socket API to the layers above.

The CPU model is intentionally coarse: a relative ``cpu_speed`` factor
(1.0 = the testbed's reference 2.4 GHz Xeon) plus a time-varying background
``load`` (runnable-process count).  Compute time for a job of *W* reference
seconds is ``W / cpu_speed * (1 + load)``.  Heavily loaded PlanetLab hosts
also add per-packet processing delay (``proc_delay_mean``), which is what
made the paper's multi-hop routes slow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.phys.endpoints import Endpoint
from repro.phys.packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.nat import Nat
    from repro.phys.network import Internet
    from repro.phys.topology import Site


class UdpSocket:
    """A bound UDP port on a host.

    ``Internet._deliver`` calls ``handler(payload, src_endpoint, size)``.  A
    transport that needs the full :class:`Datagram` (e.g. to recover the
    post-transit trace context around an encoded payload) may set
    :attr:`dgram_handler`, which then takes precedence.
    """

    def __init__(self, host: "Host", port: int,
                 handler: Callable[[Any, Endpoint, int], None]):
        self.host = host
        self.port = port
        self.handler = handler
        #: optional richer delivery hook: ``dgram_handler(dgram)``
        self.dgram_handler: Optional[Callable[[Datagram], None]] = None
        self.closed = False
        self.sent = 0
        self.received = 0
        self._endpoint = Endpoint(host.ip, port)

    @property
    def endpoint(self) -> Endpoint:
        """The socket's (ip, port); rebuilt when ``host.ip`` is
        reassigned (a guest re-homed behind a NAT)."""
        ep = self._endpoint
        if ep.ip != self.host.ip:
            ep = self._endpoint = Endpoint(self.host.ip, self.port)
        return ep

    def send(self, dst: Endpoint, payload: Any, size: int = 0,
             header: Optional[int] = None, trace: Any = None) -> None:
        """Fire-and-forget datagram send.

        ``header`` overrides the fixed framing charge (see
        :class:`~repro.phys.packet.Datagram`); ``trace`` attaches causal
        context explicitly when ``payload`` is encoded bytes and the
        context can no longer be lifted off it by attribute.
        """
        if self.closed:
            raise RuntimeError(f"socket {self.endpoint} is closed")
        self.sent += 1
        dgram = Datagram(self.endpoint, dst, payload, size=size,
                         header=header)
        if trace is not None:
            dgram.trace = trace
        self.host.internet.send(self.host, dgram)

    def close(self) -> None:
        """Unbind the port; further sends raise, deliveries are dropped."""
        self.closed = True
        self.host.sockets.pop(self.port, None)


class Host:
    """One machine (physical host, PlanetLab node, or VM guest's NIC view)."""

    def __init__(self, name: str, ip: str, site: "Site",
                 internet: "Internet",
                 nat_chain: Optional[list["Nat"]] = None,
                 cpu_speed: float = 1.0,
                 proc_delay_mean: float = 0.0,
                 extra_loss: float = 0.0):
        self.name = name
        self.ip = ip
        self.site = site
        self.internet = internet
        self.nat_chain: list["Nat"] = list(nat_chain or [])
        self.cpu_speed = cpu_speed
        self.proc_delay_mean = proc_delay_mean
        self.extra_loss = extra_loss
        self.load = 0.0  # background runnable processes
        self.sockets: dict[int, UdpSocket] = {}
        self._ephemeral = 40000
        self.up = True
        #: when set, only these UDP ports may be bound or receive traffic —
        #: models a host-only guest whose sole physical presence is the
        #: IPOP process (paper §V-E future work)
        self.allowed_ports: Optional[set[int]] = None
        internet.register_host(self)

    # -- sockets ---------------------------------------------------------
    def bind_udp(self, port: int,
                 handler: Callable[[Any, Endpoint, int], None]) -> UdpSocket:
        """Bind ``handler`` on a UDP port; raises if taken or isolated."""
        if port in self.sockets:
            raise ValueError(f"{self.name}: UDP port {port} already bound")
        if self.allowed_ports is not None and port not in self.allowed_ports:
            raise PermissionError(
                f"{self.name}: host-only isolation forbids binding {port}")
        sock = UdpSocket(self, port, handler)
        self.sockets[port] = sock
        return sock

    def ephemeral_port(self) -> int:
        """A fresh high port (40000+), never reused on this host."""
        port = self._ephemeral
        self._ephemeral += 1
        return port

    # -- CPU ---------------------------------------------------------------
    def compute_time(self, ref_seconds: float) -> float:
        """Wall time to execute ``ref_seconds`` of reference-CPU work now."""
        return ref_seconds / self.cpu_speed * (1.0 + max(0.0, self.load))

    def processing_delay(self, rng: np.random.Generator) -> float:
        """Per-packet user-level processing delay at this host."""
        if self.proc_delay_mean <= 0.0:
            return 0.0
        scale = self.proc_delay_mean * (1.0 + max(0.0, self.load))
        return float(rng.exponential(scale))

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self) -> None:
        """Stop receiving; sockets keep their state for a later restart."""
        self.up = False

    def boot(self) -> None:
        """Bring the host back up after :meth:`shutdown`."""
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} {self.ip}@{self.site.name}>"
