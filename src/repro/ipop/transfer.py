"""OverlayTransfer: one bulk data stream over the virtual network.

Wraps a :class:`~repro.phys.flows.Flow` whose resource path tracks the live
overlay route between two ring addresses.  A periodic re-path tick (plus a
hook on the source node's connection events) moves the flow onto a shortcut
the moment one forms — the mechanism behind Table II's bandwidth jump and
Fig. 6's post-migration rate change — and pauses it while the route is
broken (migration outage), resuming automatically on rejoin.

The transfer also feeds the shortcut overlord's score queue in proportion
to its achieved rate, so bulk traffic triggers shortcut creation just as
ICMP streams do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.brunet.address import BrunetAddress
from repro.phys.flows import Flow
from repro.sim.process import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipop.bandwidth import BandwidthBroker

#: effective MTU used to convert flow bytes into "packets" for scoring
MTU = 1400.0

REPATH_INTERVAL = 2.0


class OverlayTransfer:
    """A bulk transfer between two virtual IPs (by ring address)."""

    def __init__(self, broker: "BandwidthBroker", src_addr: BrunetAddress,
                 dst_addr: BrunetAddress, size: float, name: str = "xfer",
                 rate_cap: Optional[float] = None,
                 on_complete: Optional[Callable[["OverlayTransfer"], None]] = None):
        self.broker = broker
        self.sim = broker.sim
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.name = name
        self.on_complete = on_complete
        self.done = Signal(self.sim, f"{name}.done", latch=True)
        self.cancelled = False
        self._last_path_ids: Optional[tuple] = None
        self._hop_count: Optional[int] = None
        node = broker.resolve(src_addr)
        # historically the flow moved exactly ``size`` payload bytes with
        # no encapsulation framing at all; codec wire mode charges the
        # per-MTU-packet overlay+UDP/IP overhead so bulk rates reflect
        # what actually crosses the wire
        self.wire_size = float(size)
        if node is not None and node.config.wire_mode != "reference":
            from repro.wire import encap_overhead
            self.wire_size = size * (1.0 + encap_overhead() / MTU)
        self.flow = Flow(broker.flows, name, self.wire_size, [],
                         rate_cap=rate_cap, on_complete=self._flow_done)
        self.flow.pause()
        self._repath()
        # traffic inspection sees every tunnelled packet of this transfer;
        # feed the whole burst up front so short messages (PVM tasks, RPC
        # payloads) count toward shortcut scores just like long streams
        if node is not None and node.active:
            node.inspect_traffic(dst_addr, max(1, int(size / MTU)))
        self._tick_timer = self.sim.schedule(REPATH_INTERVAL, self._tick)

    # -- observability ------------------------------------------------------
    @property
    def transferred(self) -> float:
        return self.flow.transferred

    def current_transferred(self) -> float:
        """Bytes moved as of *now* (forces progress integration)."""
        self.broker.flows.advance()
        return self.flow.transferred

    @property
    def completed(self) -> bool:
        return self.flow.completed

    @property
    def hop_count(self) -> Optional[int]:
        """Overlay hops of the current route (None while broken)."""
        return self._hop_count

    def progress_log(self) -> list[tuple[float, float]]:
        return list(self.flow.progress_log)

    def mean_rate(self, t0: Optional[float] = None,
                  t1: Optional[float] = None) -> float:
        return self.flow.mean_rate(t0, t1)

    def cancel(self) -> None:
        self.cancelled = True
        self._tick_timer.cancel()
        self.flow.cancel()

    # -- internals -----------------------------------------------------------
    def _flow_done(self, flow: Flow) -> None:
        self._tick_timer.cancel()
        if self.on_complete is not None:
            self.on_complete(self)
        self.done.fire(self)

    def _tick(self) -> None:
        if self.flow.completed or self.cancelled:
            return
        # integrate progress so the log has regular samples (Fig. 6 plots)
        self.broker.flows.advance()
        self.flow._log_point()
        # keep feeding the score queue while the stream lives: after a
        # migration the (new) source node must re-earn its shortcut
        node = self.broker.resolve(self.src_addr)
        if node is not None and node.active and self.flow.rate > 0:
            packets = max(1, int(self.flow.rate * REPATH_INTERVAL / MTU))
            node.inspect_traffic(self.dst_addr, packets)
        self._repath()
        self._tick_timer = self.sim.schedule(REPATH_INTERVAL, self._tick)

    def _repath(self) -> None:
        result = self.broker.route_resources(self.src_addr, self.dst_addr)
        if result is None:
            if not self.flow.paused:
                self.sim.trace("transfer.stall", name=self.name)
                self.flow.pause()
            self._last_path_ids = None
            self._hop_count = None
            return
        resources, path = result
        path_ids = tuple(id(r) for r in resources)
        if path_ids != self._last_path_ids:
            self._last_path_ids = path_ids
            self._hop_count = len(path) - 1
            self.flow.set_path(resources)
            self.sim.trace("transfer.repath", name=self.name,
                           hops=self._hop_count)
        if self.flow.paused:
            self.sim.trace("transfer.resume", name=self.name)
            self.flow.resume()
