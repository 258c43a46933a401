"""RealtimeKernel: the simulator surface, backed by asyncio + wall clock.

Protocol code (``BrunetNode``, the linker, the overlords, ``IpopRouter``)
consumes a narrow slice of :class:`~repro.sim.engine.Simulator` — ``now``,
``schedule(delay, fn, *args)`` returning a cancellable handle, ``rng``
(the named-stream :class:`~repro.sim.rng.RngRegistry`), ``obs`` and
``tracer`` / ``trace()`` / ``trace_on`` — and this class implements
exactly that slice over a running asyncio event loop, so the identical
node objects drive real UDP sockets.  It is not a ``Simulator`` subclass:
anything outside the slice raises ``AttributeError``.  Time is
``monotonic() - epoch`` (asyncio's ``BaseEventLoop.time()`` is
``time.monotonic()``), seconds since creation.

The clock rule: time does not move inside a callback, as in the
simulator.  When the kernel enters node code — a timer in :meth:`_fire`, a
socket wake-up in ``UdpTransport._read_ready`` — it stamps ``now`` once,
and drops the stamp when the callback returns or raises.  Inside, ``now``
is that one value, an attribute load, and ``schedule_at`` converts
through it.  Outside any callback — an asyncio task such as the daemon's
control handler or ``ping()`` — ``now`` reads the clock, so a coroutine
sees time advance across an ``await``.
"""

from __future__ import annotations

import asyncio
from time import monotonic, perf_counter
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


class _WallClock:
    """``RealtimeKernel.now`` outside a callback, read off the clock (a
    non-data descriptor: inside one, the instance's stamp shadows it)."""

    def __get__(self, kernel: Optional["RealtimeKernel"], owner=None):
        return self if kernel is None else monotonic() - kernel.epoch


class RealtimeKernel:
    """Wall-clock stand-in for ``Simulator`` (see module docstring)."""

    #: seconds since creation: the callback's entry stamp, else the clock
    now = _WallClock()

    def __init__(self, seed: int = 0,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self.loop = loop or asyncio.get_running_loop()
        #: the clock's reading at kernel creation, time 0
        self.epoch = monotonic()
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(enabled=False)
        self.obs = Observability(self)
        self.events_processed = 0
        #: optional :class:`~repro.obs.prof.KernelProfiler` (same hook
        #: contract as ``Simulator.profiler``: every fired callback is
        #: counted, every stride-th one wall-timed into it)
        self.profiler = None

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
        self.now = monotonic() - self.epoch
        prof = self.profiler
        try:
            if prof is None:
                fn(*args)
            elif prof._stride_tick > 1:
                prof._stride_tick -= 1
                fn(*args)
            else:
                prof._stride_tick = prof.stride
                t0 = perf_counter()
                try:
                    fn(*args)
                finally:
                    prof.account(fn, perf_counter() - t0, self)
        finally:
            del self.now

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

