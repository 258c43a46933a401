"""Event loop for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)`` so simultaneous events
fire in a deterministic order (FIFO within a priority class).  Everything in
the repo shares one :class:`Simulator` per experiment, which also owns the
RNG registry and the tracer so that a single seed makes a whole experiment
reproducible.

Internally the queue is a hybrid of a binary heap and a bucketed timer
wheel (a calendar queue).  Events due within the current wheel bucket go
straight onto the heap; events further out are appended to their bucket in
O(1) and only merged into the heap when simulation time approaches the
bucket.  Because a bucket is always merged *before* any event at or after
its start time can fire, the pop order is exactly the total
``(time, priority, seq)`` order — the wheel is an optimisation, not a
semantic change, and ``Simulator(timer_wheel=False)`` produces a
byte-identical event stream.

Cancellation is O(1): heap entries are tombstoned and compacted lazily
(the heap is rebuilt once more than half of it is dead), while cancelled
wheel entries are simply skipped at merge time and never touch the heap at
all.  A live-event counter makes :meth:`Simulator.pending` O(1).
"""

from __future__ import annotations

import heapq
import math
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
                 "fired", "_sim", "_in_heap")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim: Optional["Simulator"] = None
        self._in_heap = False

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
            if self._sim is not None:
                self._sim._note_cancel(self)

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
    timer_wheel:
        Route far-future events through the bucketed timer wheel.  Off, the
        kernel degrades to a plain binary heap with identical semantics
        (used by the determinism golden tests).  None uses
        :attr:`default_timer_wheel`, which those tests flip to rerun whole
        experiments on the plain heap.
    wheel_granularity:
        Bucket width in simulated seconds.  Coarse periodic timers (pings,
        keep-alives, overlord ticks, flow-completion estimates) land whole
        buckets ahead and so pay O(1) to schedule and O(0) to cancel.
    trace_max_records:
        Per-category cap on retained tracer records (None = unbounded);
        see :class:`~repro.sim.trace.Tracer`.
    metrics:
        When true (default) the simulator's :class:`~repro.obs.hub.
        Observability` hub records metrics; span tracing and the flight
        recorder stay opt-in either way.
    """

    #: process-wide default for the ``timer_wheel`` parameter
    default_timer_wheel = True

    #: rebuild the heap when it holds more dead than live entries (and is
    #: big enough for the rebuild to be worth the copy)
    _COMPACT_MIN = 64

    def __init__(self, seed: int = 0, trace: bool = True,
                 timer_wheel: Optional[bool] = None,
                 wheel_granularity: float = 1.0,
                 trace_max_records: Optional[int] = None,
                 metrics: bool = True):
        if wheel_granularity <= 0:
            raise SimulationError("wheel_granularity must be positive")
        if timer_wheel is None:
            timer_wheel = self.default_timer_wheel
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
        self.tracer = Tracer(enabled=trace, max_records=trace_max_records)
        #: metrics registry + span collector + flight recorder (see
        #: :mod:`repro.obs`); metrics default on, spans/recorder opt-in
        self.obs = Observability(self, metrics=metrics)
        # -- hybrid queue state -----------------------------------------
        self._use_wheel = timer_wheel
        self._gran = wheel_granularity
        self._wheel: dict[int, list[Event]] = {}
        self._bucket_heap: list[int] = []   # min-heap of occupied buckets
        self._wheel_floor = 0               # buckets <= floor are heap-resident
        self._live = 0                      # non-cancelled events queued
        self._heap_dead = 0                 # tombstones inside self._queue
        # -- shared per-simulator services (see :meth:`shared`) ---------
        self._shared: dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self._enqueue(self.now + delay, priority, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        return self._enqueue(time, priority, fn, args)

    def _enqueue(self, time: float, priority: int,
                 fn: Callable[..., Any], args: tuple) -> Event:
        # ``not >=`` also refuses NaN, which would sort ahead of every
        # finite key and fire first with ``now`` set to NaN
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule in the past or at NaN: "
                f"{time!r} vs now {self.now}")
        ev = Event(time, priority, self._seq, fn, args)
        ev._sim = self
        self._seq += 1
        self._live += 1
        if self._use_wheel and math.isfinite(time):
            bucket = int(time // self._gran)
            if bucket > self._wheel_floor:
                entries = self._wheel.get(bucket)
                if entries is None:
                    self._wheel[bucket] = [ev]
                    heapq.heappush(self._bucket_heap, bucket)
                else:
                    entries.append(ev)
                return ev
        ev._in_heap = True
        heapq.heappush(self._queue, (time, priority, ev.seq, ev))
        return ev

    # ------------------------------------------------------------------
    # queue maintenance
    # ------------------------------------------------------------------
    def _note_cancel(self, ev: Event) -> None:
        """O(1) bookkeeping for a cancellation; compact the heap lazily."""
        self._live -= 1
        if ev._in_heap:
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

    def _head(self) -> float:
        """Bring the next live event to ``self._queue[0]`` and return its
        time (``inf`` when nothing is queued).

        Strips cancelled heap heads and merges every wheel bucket that
        could contain an event at or before the current heap head.  The
        dispatch loop only comes here when its one look at the head finds
        one of those things to do.
        """
        queue = self._queue
        while True:
            while queue and queue[0][3].cancelled:
                heapq.heappop(queue)
                self._heap_dead -= 1
            head_time = queue[0][0] if queue else math.inf
            if self._bucket_heap:
                bucket = self._bucket_heap[0]
                if bucket * self._gran <= head_time:
                    heapq.heappop(self._bucket_heap)
                    self._wheel_floor = bucket
                    for ev in self._wheel.pop(bucket):
                        if not ev.cancelled:
                            ev._in_heap = True
                            heapq.heappush(
                                queue, (ev.time, ev.priority, ev.seq, ev))
                    continue
            return head_time

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
        ``max_events`` fired.  Returns the final simulation time."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        queue, buckets, gran = self._queue, self._bucket_heap, self._gran
        fired = 0
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                # the one look at the head: a live entry no parked bucket
                # could precede fires as it is
                if (not queue or queue[0][3].cancelled
                        or (buckets and buckets[0] * gran <= queue[0][0])):
                    self._head()
                    if not queue:
                        if until is not None:
                            self.now = max(self.now, until)
                        break
                time, _priority, _seq, ev = queue[0]
                if until is not None and time > until:
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

    def shared(self, key: Any, factory: Callable[["Simulator"], Any]) -> Any:
        """Per-simulator service registry: return the object registered
        under ``key``, creating it via ``factory(self)`` on first use.

        Subsystems that want exactly one instance *per kernel* (e.g. the
        batched :class:`SweepWheel` shared by every node on a shard) go
        through here instead of module globals, so a sharded simulation
        gets one instance per shard and two simulators in one process
        never share state."""
        try:
            return self._shared[key]
        except KeyError:
            obj = self._shared[key] = factory(self)
            return obj

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def iter_pending(self) -> Iterator[Event]:
        """Iterate live queued events in arbitrary (not chronological)
        order."""
        for entry in self._queue:
            if not entry[3].cancelled:
                yield entry[3]
        for entries in self._wheel.values():
            for ev in entries:
                if not ev.cancelled:
                    yield ev


class SweepWheel:
    """Batched periodic work: many registrants share one kernel timer.

    n nodes each rescheduling a keep-alive every ``ping_interval/2``
    put 2n/ping_interval events per simulated second through the kernel
    — at 10k nodes the heap traffic dominates the overlay itself.  The
    sweep wheel quantizes registrations into buckets of ``granularity``
    seconds and fires **one** kernel event per occupied bucket, walking
    that bucket's due entries in key order.  Registrants key themselves
    by ring address, so a sweep walks due connections in address order.

    Cancellation is tombstone-free: every key carries a generation
    counter; :meth:`cancel` (and re-registration) bump it, and an entry
    whose captured generation is stale is simply skipped at fire time —
    no bucket-list scan, no kernel-event cancellation.  The bucket the
    live entry sits in is kept beside the generation (``None`` once it
    fired or was cancelled), so :meth:`pending` is one dict lookup.

    Quantization rounds *up* to the bucket edge, so work is never run
    early — a registrant asking for ``delay`` seconds runs within
    ``[delay, delay + granularity)``.  A registrant that tracks its own
    due buckets (the demand-driven shortcut overlord) registers by bucket
    index through :meth:`schedule_bucket` instead.  Batching therefore
    perturbs timing by design; it is opt-in via
    ``BrunetConfig.batch_timers`` (off by default, keeping default
    trajectories byte-identical) and meant for the 10k-node scaling runs
    where per-node timer precision is irrelevant.
    """

    def __init__(self, sim: Simulator, granularity: float = 1.0):
        if granularity <= 0:
            raise SimulationError("granularity must be positive")
        self.sim = sim
        self.granularity = granularity
        #: bucket index -> [(key, generation, fn), ...] (unsorted until fire)
        self._buckets: dict[int, list[tuple]] = {}
        #: per key: (current generation — bumped on schedule/cancel —,
        #: bucket holding the live entry or None)
        self._gen: dict[Any, tuple[int, Optional[int]]] = {}
        #: index of the last bucket to fire: a registrant walking its own
        #: grid must not re-arm a bucket the sweep has reached
        self.swept = -1
        #: fired sweep buckets (telemetry)
        self.sweeps = 0
        #: entries skipped as stale (telemetry)
        self.skipped = 0

    def bucket_at(self, t: float) -> int:
        """Index of the first bucket whose edge is at or after ``t``
        (ceil: never early)."""
        return -int(-t // self.granularity)

    def schedule(self, key: Any, delay: float, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` at the first bucket edge at or after now+``delay``.
        Any earlier registration under the same key is implicitly
        cancelled (one live entry per key)."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"negative/NaN delay: {delay!r}")
        self.schedule_bucket(key, self.bucket_at(self.sim.now + delay), fn)

    def schedule_bucket(self, key: Any, bucket: int,
                        fn: Callable[[], Any]) -> None:
        """Run ``fn()`` when ``bucket`` fires (at ``bucket * granularity``).

        Absolute registration, for a registrant that keeps its own grid
        of due buckets: going through :meth:`schedule` with
        ``bucket * granularity - now`` would re-derive the bucket from
        ``now + (due - now)``, which can round past the edge and land one
        bucket late."""
        gen = self._gen.get(key, (0, None))[0] + 1
        self._gen[key] = (gen, bucket)
        entries = self._buckets.get(bucket)
        if entries is None:
            self._buckets[bucket] = [(key, gen, fn)]
            self.sim.schedule_at(bucket * self.granularity, self._fire,
                                 bucket)
        else:
            entries.append((key, gen, fn))

    def cancel(self, key: Any) -> None:
        """Invalidate the key's live entry (O(1); idempotent).  The entry
        stays in its bucket and is discarded, not run, at fire time."""
        live = self._gen.get(key)
        if live is not None:
            self._gen[key] = (live[0] + 1, None)

    def pending(self, key: Any) -> bool:
        """True when the key has a live (not cancelled/fired) entry."""
        return self._gen.get(key, (0, None))[1] is not None

    def _fire(self, bucket: int) -> None:
        entries = self._buckets.pop(bucket, [])
        entries.sort(key=lambda e: e[0])  # address order within the sweep
        self.swept = bucket
        self.sweeps += 1
        gen = self._gen
        for key, g, fn in entries:
            if gen[key][0] != g:
                self.skipped += 1
                continue
            gen[key] = (g, None)
            fn()


def sweep_wheel(sim: Simulator, granularity: float = 1.0) -> SweepWheel:
    """The simulator's shared :class:`SweepWheel` (one per kernel/shard;
    the first caller's ``granularity`` wins)."""
    return sim.shared("sweep_wheel",
                      lambda s: SweepWheel(s, granularity=granularity))
