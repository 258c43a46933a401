"""Event loop for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)`` so simultaneous events
fire in a deterministic order (FIFO within a priority class).  Everything in
the repo shares one :class:`Simulator` per experiment, which also owns the
RNG registry and the tracer so that a single seed makes a whole experiment
reproducible.

The queue is one binary heap of ``(time, priority, seq, Event)`` tuples.
Cancellation is O(1): the entry is tombstoned where it sits and the heap
is compacted lazily (rebuilt once more than half of it is dead).  A
live-event counter makes :meth:`Simulator.pending` O(1).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.obs.hub import Observability
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be
    cancelled; cancellation is O(1) (the entry is tombstoned).

    A handle is in exactly one of three states — pending, fired, or
    cancelled — and protocol code may inspect it (``handle.pending``)
    to decide whether a resend/maintenance timer is still armed.  The
    realtime kernel's handle exposes the identical surface.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "fired", "_sim")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple, sim: "Simulator"):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    @property
    def pending(self) -> bool:
        """True while the callback is still scheduled to run."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op on an
        already-fired event (late cleanup of a completed timer must not
        re-decrement the kernel's live-event count)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "fired" if self.fired else "pending")
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all RNG streams (see :class:`RngRegistry`).
    trace:
        When true, a :class:`Tracer` records events emitted via
        :meth:`Simulator.trace`.
    """

    #: rebuild the heap when it holds more dead than live entries (and is
    #: big enough for the rebuild to be worth the copy)
    _COMPACT_MIN = 64

    def __init__(self, seed: int = 0, trace: bool = True):
        self.now: float = 0.0
        # heap entries are (time, priority, seq, Event): tuple comparison
        # stays in C (seq is unique, so the Event itself is never compared)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: True while an event callback is executing (used by subsystems
        #: that coalesce work until the end of the current event)
        self.executing = False
        #: optional :class:`~repro.obs.prof.KernelProfiler` — when set,
        #: :meth:`run` wall-times every stride-th handler into it
        #: (read-only: attaching one never changes the event trajectory)
        self.profiler = None
        #: lazy-compaction sweeps performed so far (kernel-health signal)
        self.compactions = 0
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(enabled=trace)
        #: metrics registry + span collector + flight recorder (see
        #: :mod:`repro.obs`); metrics always on, spans/recorder opt-in
        self.obs = Observability(self)
        self._live = 0                      # non-cancelled events queued
        self._heap_dead = 0                 # tombstones inside self._queue

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        # ``not >=`` also refuses NaN, which would sort ahead of every
        # finite key and fire first with ``now`` set to NaN
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay: {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        ev = Event(time, priority, seq, fn, args, self)
        heapq.heappush(self._queue, (time, priority, seq, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule in the past or at NaN: "
                f"{time!r} vs now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        ev = Event(time, priority, seq, fn, args, self)
        heapq.heappush(self._queue, (time, priority, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # queue maintenance
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """O(1) bookkeeping for a cancellation; compact the heap lazily."""
        self._live -= 1
        self._heap_dead += 1
        if (self._heap_dead > self._COMPACT_MIN
                and self._heap_dead * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and re-heapify (in place: the dispatch loop
        holds the list).  Pop order is unchanged: the heap's pop sequence
        depends only on the (totally ordered) element set, not on its
        internal layout."""
        self._queue[:] = [e for e in self._queue if not e[3].cancelled]
        heapq.heapify(self._queue)
        self._heap_dead = 0
        self.compactions += 1

    def _head(self) -> None:
        """Pop tombstones until ``self._queue`` is empty or its head is
        live.  The dispatch loop only comes here when its one look at the
        head finds a tombstone or nothing."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._heap_dead -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` fired.  Returns the final simulation time.

        The clock never goes back: an ``until`` before ``now`` fires
        nothing and leaves ``now`` where it is."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        fired = 0
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                # the one look at the head: a live entry fires as it is
                if not queue or queue[0][3].cancelled:
                    self._head()
                    if not queue:
                        if until is not None and until > self.now:
                            self.now = until
                        break
                time, _priority, _seq, ev = queue[0]
                if until is not None and time > until:
                    if until > self.now:
                        self.now = until
                    break
                heapq.heappop(queue)
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError(
                        "event queue corrupted: time went backwards")
                self.now = time
                self.events_processed += 1
                self._live -= 1
                ev.fired = True
                self.executing = True
                # sampling stride: every stride-th event is wall-timed and
                # attributed; the rest pay one decrement (KernelProfiler
                # scales the samples back into totals)
                t0 = None
                prof = self.profiler
                if prof is not None:
                    tick = prof._stride_tick - 1
                    if tick:
                        prof._stride_tick = tick
                    else:
                        prof._stride_tick = prof.stride
                        t0 = perf_counter()
                try:
                    ev.fn(*ev.args)
                finally:
                    self.executing = False
                    if t0 is not None:
                        prof.account(ev.fn, perf_counter() - t0, self)
                fired += 1
        finally:
            self._running = False
        return self.now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def trace_on(self) -> bool:
        """True when :meth:`trace` will store records.  Hot call sites
        guard on this *before* building their kwargs dict, making a
        disabled-tracing run allocation-free (record counts are then
        skipped too — durable tallies live in subsystem counters like
        ``Internet.drops`` and ``node.stats``)."""
        return self.tracer.enabled

    def trace(self, category: str, **data: Any) -> None:
        """Record a trace entry stamped with the current time."""
        self.tracer.record(self.now, category, data)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def iter_pending(self) -> Iterator[Event]:
        """Iterate live queued events in arbitrary (not chronological)
        order."""
        for entry in self._queue:
            if not entry[3].cancelled:
                yield entry[3]
