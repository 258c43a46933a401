"""The in-place dispatch loop ≡ the peek-then-step kernel it replaced, and
idle-shard skipping ≡ entering every shard every round.

``Simulator.run`` used to ask ``_head()`` for the next live event, test it
against ``until``, then call ``step()``, which asked ``_head()`` again and
fired it through one of three copies of the handler call (no profiler /
unsampled / sampled).  It now looks at the queue head once, fires in
place through one call site, and ``step()`` is ``run(max_events=1)``.
``ShardedKernel.run`` used to enter all K shards every round; it now sets
the clock of a shard with nothing due to where ``run(until=)`` would have
left it and moves on.

The designs this replaced live only in this file: ``_PeekThenStep`` holds
the old ``_head`` / ``step`` / ``run`` verbatim and ``_EnterEveryShard``
the old round loop.  Both kernels are driven through one
hypothesis-generated program and must agree on the ``(time, seq, tag)``
firing order, on ``now`` / ``events_processed`` / ``compactions`` after
every call, and (sharded) on every shard's clock, ``rounds`` and
``cross_shard``.

``Event.__lt__`` is made to raise for the whole file: heap entries are
``(time, priority, seq, Event)`` tuples with a unique ``seq`` and the
inter-shard mailbox sorts on ``(time, seq)``, so nothing ever compares two
events — which is why the method could be deleted.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.prof import KernelProfiler
from repro.sim import SimulationError, Simulator
from repro.sim.engine import Event
from repro.sim.shards import ShardedKernel


@pytest.fixture(autouse=True)
def _events_are_never_compared(monkeypatch):
    def compared(_self, _other):
        raise AssertionError("two Event objects were compared")

    monkeypatch.setattr(Event, "__lt__", compared, raising=False)


class _PeekThenStep(Simulator):
    """The kernel loop as it was before the dispatch loop was inlined."""

    def _head(self) -> Optional[Event]:
        queue = self._queue
        while True:
            while queue and queue[0][3].cancelled:
                heapq.heappop(queue)
                self._heap_dead -= 1
            if self._bucket_heap:
                head_time = queue[0][0] if queue else math.inf
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
            return queue[0][3] if queue else None

    def step(self) -> bool:
        ev = self._head()
        if ev is None:
            return False
        heapq.heappop(self._queue)
        if ev.time < self.now:
            raise SimulationError("event queue corrupted")
        self.now = ev.time
        self.events_processed += 1
        self._live -= 1
        ev.fired = True
        self.executing = True
        prof = self.profiler
        if prof is None:
            try:
                ev.fn(*ev.args)
            finally:
                self.executing = False
        else:
            tick = prof._stride_tick - 1
            if tick:
                prof._stride_tick = tick
                try:
                    ev.fn(*ev.args)
                finally:
                    self.executing = False
            else:
                prof._stride_tick = prof.stride
                t0 = perf_counter()
                try:
                    ev.fn(*ev.args)
                finally:
                    self.executing = False
                    prof.account(ev.fn, perf_counter() - t0, self)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                head = self._head()
                if head is None:
                    if until is not None:
                        self.now = max(self.now, until)
                    break
                if until is not None and head.time > until:
                    self.now = until
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        return self.now


class _LoggingProfiler(KernelProfiler):
    """Remembers which events the stride sampled."""

    __slots__ = ("sampled",)

    def account(self, fn, dt, kernel) -> None:
        self.sampled.append(kernel.events_processed)
        super().account(fn, dt, kernel)


# ---------------------------------------------------------------------------
# one program, two kernels
# ---------------------------------------------------------------------------
#: what an event does when it fires
PLAIN, CANCEL, SPAWN, SPAWN_CANCEL, STOP = range(5)

#: times on a coarse grid, so same-instant ties (broken by priority, then
#: seq) and ``until`` values equal to an event time are common
_time = st.integers(0, 48).map(lambda q: q * 0.25)
#: an event at +inf sits in the heap (the wheel only takes finite times)
#: while every parked bucket still has to fire before it
_at = st.one_of(_time, _time, _time, st.just(math.inf))
_event = st.tuples(_at, st.integers(-1, 1),
                   st.sampled_from([PLAIN, PLAIN, CANCEL, SPAWN,
                                    SPAWN_CANCEL, STOP]),
                   st.integers(0, 1 << 16), _time)
_call = st.one_of(
    st.tuples(st.just("until"), _time),
    st.tuples(st.just("max"), st.integers(0, 6)),
    st.tuples(st.just("both"), _time, st.integers(1, 6)),
    st.tuples(st.just("step")),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)))
_program = st.tuples(st.lists(_event, min_size=1, max_size=40),
                     st.lists(_call, max_size=12))


def _drive(kernel_cls, program, wheel: bool, stride: Optional[int]):
    """Run ``program`` on a fresh ``kernel_cls``; return everything the
    two kernels must agree on."""
    events, calls = program
    sim = kernel_cls(seed=0, trace=False, timer_wheel=wheel)
    prof = None
    if stride is not None:
        prof = sim.profiler = _LoggingProfiler(stride=stride)
        prof.sampled = []
    handles: list[Event] = []
    log: list = []

    def fire(index: int, kind: int, pick: int, delay: float) -> None:
        log.append((sim.now, handles[index].seq, index))
        if kind == CANCEL:          # a target in the heap, in the wheel,
            handles[pick % len(handles)].cancel()   # fired, or itself
        elif kind in (SPAWN, SPAWN_CANCEL):
            child = len(handles)
            handles.append(sim.schedule(delay, fire, child, PLAIN, 0, 0.0,
                                        priority=pick % 3 - 1))
            if kind == SPAWN_CANCEL:
                handles[child].cancel()
        elif kind == STOP:
            sim.stop()

    for index, (at, priority, kind, pick, delay) in enumerate(events):
        handles.append(sim.schedule_at(at, fire, index, kind, pick, delay,
                                       priority=priority))
    seen = []

    def note() -> None:
        seen.append((sim.now, sim.events_processed, sim.compactions,
                     sim.pending(), len(log)))

    note()
    for call in calls:
        if call[0] == "until":
            sim.run(until=max(call[1], sim.now))
        elif call[0] == "max":
            sim.run(max_events=call[1])
        elif call[0] == "both":
            sim.run(until=max(call[1], sim.now), max_events=call[2])
        elif call[0] == "step":
            seen.append(sim.step())
        else:
            handles[call[1] % len(handles)].cancel()
        note()
    sim.run()
    note()
    return log, seen, prof.sampled if prof else None


@settings(max_examples=120, deadline=None)
@given(_program, st.booleans(), st.sampled_from([None, 1, 4]))
def test_dispatch_loop_fires_what_peek_then_step_fired(program, wheel,
                                                       stride):
    assert (_drive(Simulator, program, wheel, stride)
            == _drive(_PeekThenStep, program, wheel, stride))


@pytest.mark.parametrize("wheel", [True, False])
def test_compaction_under_a_handler_keeps_the_loop_on_the_live_heap(wheel):
    """A handler cancels most of the heap, which compacts it *while the
    dispatch loop holds the list*: same survivors, same compaction count
    as the kernel that re-read ``self._queue`` for every event."""
    def drive(kernel_cls):
        sim = kernel_cls(seed=0, trace=False, timer_wheel=wheel)
        log = []
        handles = [sim.schedule(0.5 + i * 1e-3, log.append, i)
                   for i in range(300)]

        def purge():
            for handle in handles[10:280]:
                handle.cancel()

        sim.schedule(0.1, purge)
        sim.run()
        return log, sim.compactions, sim.now, sim.events_processed

    new, old = drive(Simulator), drive(_PeekThenStep)
    assert new == old
    assert new[0] == list(range(10)) + list(range(280, 300))
    assert new[1] >= 1


# ---------------------------------------------------------------------------
# idle-shard skipping
# ---------------------------------------------------------------------------
class _EnterEveryShard(ShardedKernel):
    """The round loop as it was: ``run(until=nxt)`` on all K shards."""

    def run(self, until=None, max_events=None):
        if self.n_shards == 1:
            return self.shards[0].run(until=until, max_events=max_events)
        self._running = True
        self._stopped = False
        la = self.lookahead
        barrier = self._barrier
        try:
            while not self._stopped:
                self._drain_mail()
                head = min(s._head() for s in self.shards)
                if math.isinf(head) or (until is not None and head > until):
                    if until is not None and until > barrier:
                        barrier = until
                    break
                nxt = barrier + la
                if head > nxt:
                    nxt = la * math.ceil(head / la)
                    if nxt < head:
                        nxt = head
                if until is not None and nxt > until:
                    nxt = until
                for shard in self.shards:
                    self._active = shard
                    try:
                        shard.run(until=nxt)
                    finally:
                        self._active = None
                    if self._stopped:
                        break
                barrier = nxt
                self.rounds += 1
        finally:
            self._running = False
            for s in self.shards:
                if s.now < barrier:
                    s.now = barrier
            self._barrier = barrier
        return barrier


class _Host:
    def __init__(self, index: int):
        self.name = f"h{index}"


class _Internet:
    """What ``ShardedKernel.attach`` needs of an internet: the delivery
    seam and ``_deliver``.  A "datagram" is ``(tag, rest)``: on delivery
    the host relays it along ``rest``, a list of (host index, delay)."""

    def __init__(self, kernel, hosts, log):
        self.kernel, self.hosts, self.log = kernel, hosts, log

    def _schedule_delivery(self, delay, host, dgram):
        self.kernel.schedule(delay, self._deliver, host, dgram)

    def _deliver(self, host, dgram):
        tag, rest = dgram
        # every shard's clock, as a handler sees it mid-round
        self.log.append((self.kernel.now, host.name, tag, len(rest),
                         [s.now for s in self.kernel.shards]))
        self.relay(tag, rest)

    def relay(self, tag, chain):
        if chain:
            (dst, delay), rest = chain[0], chain[1:]
            self._schedule_delivery(delay, self.hosts[dst], (tag, rest))


def _address(index: int) -> int:
    return (index << 157) + 5           # eight hosts spread over the ring


_hop = st.tuples(st.integers(0, 7),
                 st.integers(0, 40).map(lambda q: q * 0.0005))
_traffic = st.lists(
    st.tuples(st.integers(0, 7),                            # first sender
              st.integers(0, 60).map(lambda q: q * 0.001),  # when
              st.lists(_hop, min_size=1, max_size=5)),      # relay chain
    min_size=1, max_size=25)
_untils = st.lists(st.integers(1, 80).map(lambda q: q * 0.001),
                   min_size=1, max_size=6)


def _drive_shards(kernel_cls, shards: int, traffic, untils):
    kernel = kernel_cls(seed=0, shards=shards, lookahead=0.002, trace=False)
    log: list = []
    hosts = [_Host(i) for i in range(8)]
    internet = _Internet(kernel, hosts, log)
    kernel.attach(internet)
    for i, host in enumerate(hosts):
        kernel.register_host(host, _address(i))
    for tag, (src, at, chain) in enumerate(traffic):
        kernel.shard(kernel.shard_index(_address(src))).schedule_at(
            at, internet.relay, tag, chain)
    seen = []
    now = 0.0
    for step in untils:
        now += step
        kernel.run(until=now)
        seen.append((kernel.now, [s.now for s in kernel.shards],
                     kernel.rounds, kernel.cross_shard,
                     kernel.events_processed, kernel.pending(), len(log)))
    kernel.run()
    seen.append((kernel.now, [s.now for s in kernel.shards], kernel.rounds,
                 kernel.cross_shard, kernel.events_processed))
    return log, seen


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 4, 8]), _traffic, _untils)
def test_skipping_idle_shards_changes_nothing(shards, traffic, untils):
    new = _drive_shards(ShardedKernel, shards, traffic, untils)
    assert new == _drive_shards(_EnterEveryShard, shards, traffic, untils)
    assert len(new[0]) == sum(len(chain) for _src, _at, chain in traffic)
