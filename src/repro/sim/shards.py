"""Sharded event kernel: conservative windowed round-robin over K shards.

A 10k-node ring pushes every keep-alive, overlord tick and routed packet
through one global event heap.  :class:`ShardedKernel` partitions the ring
into K contiguous address regions — ``shard_of(addr) = addr·K >> 160`` —
and gives each region its own :class:`~repro.sim.engine.Simulator` (its
own heap + timer wheel), while sharing a single RNG registry, tracer and
observability hub so a seed still pins the whole experiment.

Synchronisation is classic conservative PDES: time advances in windows of
``lookahead`` seconds.  Every shard runs its local queue up to the window
barrier before any shard may pass it; events a shard schedules for itself
are unconstrained, but an event crossing regions (a packet delivery whose
destination host lives on another shard) is clamped to arrive no earlier
than ``lookahead`` after it was sent and is carried through an inter-shard
mailbox, drained in deterministic ``(time, seq)`` order at the next window
boundary.  Because cross-shard arrivals always land strictly beyond the
current barrier, no shard ever receives an event in its past.

``shards=1`` (the default) degrades to a transparent facade over a single
:class:`Simulator` — every call delegates, no window logic runs, and
same-seed trajectories are byte-identical to the plain kernel.  With
``shards>1`` the delay clamp and the window quantisation perturb timing by
design, so results are reproducible per (seed, shards, lookahead) triple
but differ across shard counts; see DESIGN.md §16 for when that matters.

This is an in-process round-robin, not thread parallelism: the win is
K smaller heaps (shorter sift paths, better locality) and a mailbox seam
that a future multi-process runner can pick up — not a GIL miracle.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host
    from repro.phys.network import Internet
    from repro.phys.packet import Datagram

#: the 160-bit Brunet address space partitioned across shards
_ADDRESS_BITS = 160


class ShardedKernel:
    """Drop-in ``Simulator`` facade multiplexing K region shards.

    Nodes, transports and the internet hold *this* object as their
    ``sim``; scheduling calls made while a shard is executing land on
    that shard's queue at that shard's clock, so a node whose start
    event was placed on its owning shard keeps all of its self-timers
    there.  Setup code running outside any shard schedules on shard 0
    (use :meth:`shard` + :meth:`shard_index` to place work explicitly).
    """

    def __init__(self, seed: int = 0, shards: int = 1,
                 lookahead: float = 0.010, trace: bool = True,
                 trace_max_records: Optional[int] = None,
                 metrics: bool = True):
        if shards < 1:
            raise SimulationError("need at least one shard")
        if lookahead <= 0 or not math.isfinite(lookahead):
            raise SimulationError("lookahead must be positive and finite")
        base = Simulator(seed=seed, trace=trace,
                         trace_max_records=trace_max_records, metrics=metrics)
        self.shards: list[Simulator] = [base]
        # one seed, one tracer, one metrics hub for the whole kernel
        self.rng, self.tracer, self.obs = base.rng, base.tracer, base.obs
        for _ in range(shards - 1):
            s = Simulator(seed=seed, trace=False, metrics=False)
            s.rng, s.tracer, s.obs = self.rng, self.tracer, self.obs
            self.shards.append(s)
        self.n_shards = shards
        self.lookahead = lookahead
        self._active: Optional[Simulator] = None
        self._host_shard: dict[int, int] = {}
        self._mail: list[list[tuple]] = [[] for _ in range(shards)]
        self._mail_seq = 0
        self._barrier = 0.0
        self._running = False
        self._stopped = False
        #: synchronisation windows executed (telemetry)
        self.rounds = 0
        #: deliveries that crossed a region boundary (telemetry)
        self.cross_shard = 0

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def shard_index(self, addr: int) -> int:
        """The shard owning a 160-bit ring address (contiguous regions)."""
        return (int(addr) * self.n_shards) >> _ADDRESS_BITS

    def shard(self, index: int) -> Simulator:
        """The inner simulator for one region (for explicit placement)."""
        return self.shards[index]

    def register_host(self, host: "Host", addr: int) -> None:
        """Pin ``host`` to the shard owning ``addr`` (its node's ring
        address).  Deliveries to unregistered hosts stay on the sending
        shard — register every overlay host when ``shards > 1``."""
        self._host_shard[id(host)] = self.shard_index(addr)

    def attach(self, internet: "Internet") -> None:
        """Route the internet's delivery events through the kernel.

        Replaces the internet's ``_schedule_delivery`` seam so packets
        addressed to a host on another shard travel via the inter-shard
        mailbox with the lookahead clamp.  A no-op with one shard, which
        keeps the single-shard event stream byte-identical to a plain
        :class:`Simulator`.
        """
        if self.n_shards == 1:
            return
        internet._schedule_delivery = partial(  # type: ignore[method-assign]
            self._route_delivery, internet)

    def _route_delivery(self, internet: "Internet", delay: float,
                        host: "Host", dgram: "Datagram") -> None:
        active = self._active or self.shards[0]
        dst = self._host_shard.get(id(host))
        if dst is None or self.shards[dst] is active:
            active.schedule(delay, internet._deliver, host, dgram)
            return
        self.cross_shard += 1
        la = self.lookahead
        t = active.now + (delay if delay > la else la)
        self._mail_seq += 1
        self._mail[dst].append(
            (t, self._mail_seq, internet._deliver, (host, dgram)))

    def _drain_mail(self) -> None:
        """Move mailbox entries onto their shards' queues in (time, seq)
        order.  Every entry's time lies strictly beyond the barrier all
        shards have reached, so the insertions are always in-future."""
        for idx, box in enumerate(self._mail):
            if not box:
                continue
            box.sort()  # (t, seq) — seq unique, fn/args never compared
            shard = self.shards[idx]
            for t, _seq, fn, args in box:
                shard.schedule_at(t, fn, *args)
            box.clear()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run all shards until drained or ``until``.  Windowed
        round-robin with ``shards > 1``; a straight delegate otherwise."""
        if self.n_shards == 1:
            return self.shards[0].run(until=until, max_events=max_events)
        if self._running:
            raise SimulationError("kernel is not reentrant")
        if max_events is not None:
            raise SimulationError(
                "max_events is not supported with shards > 1")
        self._running = True
        self._stopped = False
        la = self.lookahead
        barrier = self._barrier
        try:
            while not self._stopped:
                self._drain_mail()
                heads = [s._head() for s in self.shards]
                head = min(heads)
                if math.isinf(head) or (until is not None and head > until):
                    if until is not None and until > barrier:
                        barrier = until
                    break
                nxt = barrier + la
                if head > nxt:
                    # idle-skip: jump straight to the window holding the
                    # next event anywhere in the system
                    nxt = la * math.ceil(head / la)
                    if nxt < head:  # float guard
                        nxt = head
                if until is not None and nxt > until:
                    nxt = until  # a narrower window is strictly safe
                for shard, first in zip(self.shards, heads):
                    if first > nxt:
                        # nothing due this window: where run(until=nxt)
                        # would leave the clock, without entering it
                        shard.now = nxt
                        continue
                    self._active = shard
                    try:
                        shard.run(until=nxt)
                    finally:
                        self._active = None
                    if self._stopped:
                        # the round is unfinished: the stopped shard and
                        # the ones not yet run keep their clocks, and the
                        # barrier stays, so the next run() completes it
                        break
                else:
                    barrier = nxt
                    self.rounds += 1
        finally:
            self._running = False
            for s in self.shards:
                if s.now < barrier:
                    s.now = barrier
            self._barrier = barrier
        return barrier

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True
        (self._active or self.shards[0]).stop()

    def step(self) -> bool:
        """Single-step (single-shard mode only — windowed execution has
        no meaningful global "next event" outside :meth:`run`)."""
        if self.n_shards != 1:
            raise SimulationError("step() requires shards == 1")
        return self.shards[0].step()

    # ------------------------------------------------------------------
    # Simulator facade
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The executing shard's clock, or the global barrier when idle."""
        return (self._active or self.shards[0]).now

    @property
    def executing(self) -> bool:
        return (self._active or self.shards[0]).executing

    @property
    def trace_on(self) -> bool:
        return self.tracer.enabled

    def trace(self, category: str, **data: Any) -> None:
        self.tracer.record(self.now, category, data)

    @property
    def events_processed(self) -> int:
        return sum(s.events_processed for s in self.shards)

    @property
    def profiler(self):
        return self.shards[0].profiler

    @profiler.setter
    def profiler(self, prof) -> None:
        for s in self.shards:
            s.profiler = prof

    def pending(self) -> int:
        return (sum(s.pending() for s in self.shards)
                + sum(len(box) for box in self._mail))

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Schedule on the executing shard (shard 0 outside callbacks)."""
        return (self._active or self.shards[0]).schedule(
            delay, fn, *args, priority=priority)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        return (self._active or self.shards[0]).schedule_at(
            time, fn, *args, priority=priority)


__all__ = ["ShardedKernel"]
