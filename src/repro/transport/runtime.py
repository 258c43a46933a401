"""RealtimeKernel: the simulator surface, backed by asyncio + wall clock.

Protocol code (``BrunetNode``, the linker, the overlords, ``IpopRouter``)
consumes a narrow slice of :class:`~repro.sim.engine.Simulator`:

- ``now`` and ``schedule(delay, fn, *args)`` returning a cancellable handle
- ``rng`` — the named-stream :class:`~repro.sim.rng.RngRegistry`
- ``obs`` — metrics / spans / flight recorder
- ``tracer`` / ``trace()`` / ``trace_on``

This class implements exactly that slice over a running asyncio event
loop, so the identical node objects drive real UDP sockets.  Time is
relative to kernel creation (``loop.time() - t0``), which keeps timer
arithmetic in the same small-positive-float regime the simulator uses.

It is intentionally *not* a subclass of ``Simulator`` — the discrete
event queue and ``run()`` make no sense under a wall clock.  Anything outside the slice above raises ``AttributeError``
loudly rather than silently misbehaving.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Any, Callable, Optional

from repro.obs.hub import Observability
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class _Handle:
    """Duck-type of :class:`repro.sim.engine.Event` over ``call_later``.

    Mirrors the sim handle's three states (pending / fired / cancelled):
    protocol code that inspects a handle to decide whether a resend or
    maintenance timer is still armed must read the same answer live as
    in sim.  The kernel marks ``fired`` when the callback runs.
    """

    __slots__ = ("_timer", "cancelled", "fired")

    def __init__(self):
        self._timer: Optional[asyncio.TimerHandle] = None
        self.cancelled = False
        self.fired = False

    @property
    def pending(self) -> bool:
        """True while the callback is still scheduled to run."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Idempotent; a no-op once the handle has fired (matching
        :meth:`repro.sim.engine.Event.cancel`)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._timer.cancel()


class RealtimeKernel:
    """Wall-clock stand-in for ``Simulator`` (see module docstring)."""

    def __init__(self, seed: int = 0,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self.loop = loop or asyncio.get_running_loop()
        self._t0 = self.loop.time()
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(enabled=False)
        self.obs = Observability(self, metrics=True)
        self.events_processed = 0
        #: mirrors ``Simulator.executing``; subsystems use it to coalesce
        #: work until the end of the current callback
        self.executing = False
        #: optional :class:`~repro.obs.prof.KernelProfiler` (same hook
        #: contract as ``Simulator.profiler``: every fired callback is
        #: counted, every stride-th one wall-timed into it)
        self.profiler = None
        self._stats_transport: Optional[asyncio.DatagramTransport] = None

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since kernel creation (monotonic)."""
        return self.loop.time() - self._t0

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> _Handle:
        """Run ``fn(*args)`` after ``delay`` wall-clock seconds."""
        handle = _Handle()
        handle._timer = self.loop.call_later(
            max(0.0, delay), self._fire, handle, fn, args)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> _Handle:
        """Run ``fn(*args)`` at absolute kernel time ``time``."""
        return self.schedule(time - self.now, fn, *args, priority=priority)

    def _fire(self, handle: _Handle, fn: Callable[..., Any],
              args: tuple) -> None:
        handle.fired = True
        self.events_processed += 1
        self.executing = True
        prof = self.profiler
        if prof is None:
            try:
                fn(*args)
            finally:
                self.executing = False
        else:
            tick = prof._stride_tick - 1
            if tick:
                prof._stride_tick = tick
                try:
                    fn(*args)
                finally:
                    self.executing = False
            else:
                prof._stride_tick = prof.stride
                t0 = perf_counter()
                try:
                    fn(*args)
                finally:
                    self.executing = False
                    prof.account(fn, perf_counter() - t0, self)

    # -- stats socket -----------------------------------------------------
    async def serve_stats(self, host: str = "127.0.0.1", port: int = 0,
                          public: bool = False,
                          max_bytes: int = 8192) -> tuple[str, int]:
        """Expose a UDP stats socket: a datagram is answered with one
        JSON snapshot (see :func:`repro.obs.top.build_stats`) — the
        attach point for ``python -m repro.obs.top --connect ip:port``
        against a long-running daemon.  Returns the bound ``(ip, port)``.

        By default only loopback sources are answered; pass
        ``public=True`` to answer anyone (the snapshot leaks topology
        detail, so this is opt-in).  Replies are capped at ``max_bytes``
        — an unconditional multi-kB answer to a one-byte datagram is a
        UDP amplification primitive.
        """
        transport, _ = await self.loop.create_datagram_endpoint(
            lambda: _StatsProtocol(self, public=public, max_bytes=max_bytes),
            local_addr=(host, port))
        self._stats_transport = transport
        sockname = transport.get_extra_info("sockname")
        return sockname[0], sockname[1]

    def close_stats(self) -> None:
        """Tear down the stats socket (idempotent)."""
        if self._stats_transport is not None:
            self._stats_transport.close()
            self._stats_transport = None

    # -- tracing ---------------------------------------------------------
    @property
    def trace_on(self) -> bool:
        """Always False: the structured tracer is a sim-analysis tool."""
        return self.tracer.enabled

    def trace(self, category: str, **data: Any) -> None:
        """No-op under the wall clock (tracer is constructed disabled)."""
        self.tracer.record(self.now, category, data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RealtimeKernel t={self.now:.3f}>"


class _StatsProtocol(asyncio.DatagramProtocol):
    """Datagram responder behind :meth:`RealtimeKernel.serve_stats`.

    Hardened for the open internet even though it defaults to loopback:
    ``transport`` is initialized eagerly (a datagram racing
    ``connection_made`` is dropped, not an AttributeError), non-loopback
    sources are ignored unless ``public``, and the reply is capped at
    ``max_bytes`` by progressively shedding snapshot detail.
    """

    def __init__(self, kernel: "RealtimeKernel", public: bool = False,
                 max_bytes: int = 8192):
        self.kernel = kernel
        self.public = public
        self.max_bytes = max_bytes
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:  # pragma: no cover - teardown
        self.transport = None

    @staticmethod
    def _is_loopback(ip: str) -> bool:
        return ip.startswith("127.") or ip in ("::1", "localhost")

    def _snapshot(self) -> bytes:
        from repro.obs.top import build_stats
        try:
            payload = json.dumps(build_stats(self.kernel),
                                 sort_keys=True).encode()
            if len(payload) <= self.max_bytes:
                return payload
            # shed detail until the reply fits: first the per-node /
            # sector / profiler tables, then everything but the header
            slim = build_stats(self.kernel, top_nodes=0)
            slim.pop("sectors", None)
            slim.pop("profile", None)
            payload = json.dumps(slim, sort_keys=True).encode()
            if len(payload) <= self.max_bytes:
                return payload
            minimal = {"t": self.kernel.now,
                       "events": self.kernel.events_processed,
                       "sums": {}, "nodes": [], "truncated": True}
            return json.dumps(minimal, sort_keys=True).encode()
        except Exception:  # pragma: no cover - stats must not kill
            return b"{}"

    def datagram_received(self, data: bytes, addr) -> None:
        if self.transport is None:
            return
        if not self.public and not self._is_loopback(addr[0]):
            return
        self.transport.sendto(self._snapshot()[:self.max_bytes], addr)
