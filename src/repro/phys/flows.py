"""Max-min fair fluid-flow model for bulk data transfers.

Simulating a 720 MB SCP transfer packet-by-packet would need ~10⁶ events;
instead, bulk transfers are *flows* that progress continuously at a rate
determined by progressive filling (max-min fairness) over the capacity
resources along their path.  Rates are recomputed whenever the flow set or
any path changes; between recomputations progress is linear, so it can be
integrated exactly — and lazily: each flow carries ``(_base, _sync_t)``
and materializes ``transferred`` on read.

Per-flow rate caps (e.g. a TCP window/RTT bound) are modelled as a private
:class:`Resource` appended to the path — this keeps the fairness computation
uniform and correct.

Every recomputation water-fills the whole flow set from raw capacities.
No experiment has more than 11 live flows at once, so there is no scope to
track: any mutation (flow add/remove/re-path, pause/resume, capacity
change) just marks the manager stale.  Mutations made inside an event are
coalesced: the first one schedules a single flush at the current timestamp
with a priority below every ordinary event, so a burst of changes pays for
one recomputation and every event at a later timestamp still observes
fresh rates.  Mutations made outside event context recompute synchronously,
so direct driving of the manager (tests, setup code) keeps eager semantics.

Each rate assignment stores the flow's estimated finish time; one kernel
event waits for the earliest, and flows due together complete in (finish,
assignment order).

The overlay layer maps an overlay route onto resources: each traversed
IPOP router contributes its user-level forwarding capacity and each WAN
site-pair contributes a path-capacity resource (see
:mod:`repro.ipop.bandwidth`).  Re-pathing a live flow (a shortcut forming, a
migration) is ``flow.set_path(...)`` — exactly what Figs. 6–8 exercise.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.sim.process import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event, Simulator

_EPS = 1e-9

#: flushes run before every ordinary event at the same timestamp, so any
#: event at time t observes rates that reflect all mutations made before t
_FLUSH_PRIORITY = -(1 << 30)


class Resource:
    """A capacity-limited stage (link, router CPU) shared by flows."""

    __slots__ = ("name", "capacity", "flows")

    def __init__(self, name: str, capacity: float):
        if capacity < 0:
            raise ValueError(f"negative capacity for {name}")
        self.name = name
        self.capacity = capacity
        self.flows: set["Flow"] = set()

    def set_capacity(self, capacity: float, manager: "FlowManager") -> None:
        """Change capacity and recompute rates.

        A resource carrying no flows cannot affect any rate, so the change
        is recorded without triggering a recomputation (the next flow
        admitted over it recomputes anyway).
        """
        self.capacity = capacity
        if not self.flows:
            return
        manager.request_recompute()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Resource {self.name} cap={self.capacity:.0f}B/s n={len(self.flows)}>"


class Flow:
    """One bulk transfer.

    ``done`` is a latched signal fired with the completion time.  ``paused``
    flows hold their progress at rate 0 (used across migration outages).

    Progress is integrated lazily: ``_base`` bytes were transferred as of
    ``_sync_t``, and the current rate extends that linearly, so
    :attr:`transferred` is exact at any read without a manager pass.
    ``progress_log`` gains a point at every rate transition — progress is
    linear in between, so interpolation over the log stays exact.
    """

    def __init__(self, manager: "FlowManager", name: str, size: float,
                 path: Iterable[Resource], rate_cap: Optional[float] = None,
                 on_complete: Optional[Callable[["Flow"], None]] = None):
        if size <= 0:
            raise ValueError("flow size must be positive")
        self.manager = manager
        self.name = name
        self.size = float(size)
        self.rate = 0.0
        self.paused = False
        self.completed = False
        self.start_time = manager.sim.now
        self.finish_time: Optional[float] = None
        self.on_complete = on_complete
        self._done: Optional[Signal] = None
        self.progress_log: list[tuple[float, float]] = [(self.start_time, 0.0)]
        self._base = 0.0          # bytes transferred as of _sync_t
        self._sync_t = self.start_time
        self._finish = math.inf   # estimated finish at the current rate
        self._seq = 0             # manager-wide order of that estimate
        self._cap_resource = (None if rate_cap is None
                              else Resource(f"cap.{name}", rate_cap))
        self.path: list[Resource] = []
        self._set_path(path)
        manager.add(self)

    @property
    def done(self) -> Signal:
        """Latched completion signal (created on first use — most flows in
        large churn scenarios are cancelled without anyone awaiting them)."""
        if self._done is None:
            self._done = Signal(self.manager.sim, f"flow.{self.name}.done",
                                latch=True)
        return self._done

    # -- progress ----------------------------------------------------------
    @property
    def transferred(self) -> float:
        """Bytes transferred so far (exact, lazily integrated)."""
        if self.rate > 0.0 and not self.completed:
            now = self.manager.sim.now
            if now > self._sync_t:
                return min(self.size,
                           self._base + self.rate * (now - self._sync_t))
        return self._base

    def _sync(self, now: float) -> None:
        """Materialize linear progress up to ``now`` at the current rate.

        Called before every rate change so ``progress_log`` records the
        piecewise-linear trajectory exactly at its breakpoints.
        """
        if self.rate > 0.0 and now > self._sync_t and not self.completed:
            self._base = min(self.size,
                             self._base + self.rate * (now - self._sync_t))
            self._sync_t = now
            log = self.progress_log
            if log[-1][0] != now or log[-1][1] != self._base:
                log.append((now, self._base))
        else:
            self._sync_t = now

    # -- path management --------------------------------------------------
    def _set_path(self, path: Iterable[Resource]) -> None:
        for r in self.path:
            r.flows.discard(self)
        self.path = list(path)
        if self._cap_resource is not None:
            self.path.append(self._cap_resource)
        for r in self.path:
            r.flows.add(self)

    def set_path(self, path: Iterable[Resource]) -> None:
        """Re-route the flow (keeps transferred bytes)."""
        if self.completed or self not in self.manager.flows:
            # completed or cancelled: re-pathing would re-register the
            # flow on the resources and let it steal live flows' share
            return
        self._set_path(path)
        self.manager.request_recompute()

    # -- control ----------------------------------------------------------
    def _log_point(self) -> None:
        now = self.manager.sim.now
        if self.progress_log[-1] != (now, self._base):
            self.progress_log.append((now, self._base))

    def pause(self) -> None:
        """Freeze progress at rate 0 (e.g. across a migration outage)."""
        if (not self.paused and not self.completed
                and self in self.manager.flows):
            self._sync(self.manager.sim.now)
            self.paused = True
            self._log_point()
            self.manager.request_recompute()

    def resume(self) -> None:
        """Undo :meth:`pause`; rates are recomputed immediately."""
        if self.paused and not self.completed \
                and self in self.manager.flows:
            self.paused = False
            self._log_point()
            self.manager.request_recompute()

    def cancel(self) -> None:
        """Abort the transfer; ``done`` never fires."""
        if not self.completed:
            self.manager.remove(self)

    def mean_rate(self, t0: Optional[float] = None,
                  t1: Optional[float] = None) -> float:
        """Average achieved rate over [t0, t1] from the progress log."""
        log = self.progress_log
        t0 = log[0][0] if t0 is None else t0
        if t1 is None:
            t1 = (self.manager.sim.now
                  if self.rate > 0.0 and not self.completed else log[-1][0])
        if t1 <= t0:
            return 0.0

        def bytes_at(t: float) -> float:
            if t >= log[-1][0]:
                # past the last breakpoint: extend the live linear segment
                if self.rate > 0.0 and not self.completed and t >= self._sync_t:
                    return min(self.size,
                               self._base + self.rate * (t - self._sync_t))
                return log[-1][1]
            prev_t, prev_b = log[0]
            for lt, lb in log:
                if lt > t:
                    if lt == prev_t:
                        return prev_b
                    frac = (t - prev_t) / (lt - prev_t)
                    return prev_b + frac * (lb - prev_b)
                prev_t, prev_b = lt, lb
            return log[-1][1]

        return (bytes_at(t1) - bytes_at(t0)) / (t1 - t0)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Flow {self.name} {self.transferred:.0f}/{self.size:.0f}B "
                f"rate={self.rate:.0f}B/s>")


class FlowManager:
    """Owns all live flows; integrates progress and recomputes fair rates."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.flows: set[Flow] = set()
        self._next_event: Optional["Event"] = None
        self._next_at = math.inf
        self._stale = False
        self._flushing = False
        self._flush_event: Optional["Event"] = None
        self._seq = 0

    # -- flow set ----------------------------------------------------------
    def add(self, flow: Flow) -> None:
        """Admit a flow and rebalance rates."""
        self.flows.add(flow)
        self.request_recompute()

    def remove(self, flow: Flow) -> None:
        """Withdraw a flow (without completing it) and rebalance."""
        flow._sync(self.sim.now)
        self.flows.discard(flow)
        flow.rate = 0.0
        for r in flow.path:
            r.flows.discard(flow)
        self.request_recompute()

    # -- integration --------------------------------------------------------
    def advance(self) -> None:
        """Materialize every flow's progress and complete the due ones.

        Rate reads and :attr:`Flow.transferred` are exact without calling
        this; it exists for callers that want completions detected at a
        specific instant rather than at the scheduled completion event.
        """
        now = self.sim.now
        finished: list[Flow] = []
        for f in self.flows:
            if f.rate > 0.0:
                f._sync(now)
                if f.size - f._base <= _EPS:
                    finished.append(f)
        for f in finished:
            self._complete(f)

    def _complete(self, flow: Flow) -> None:
        flow._sync(self.sim.now)
        flow.completed = True
        flow.finish_time = self.sim.now
        flow.rate = 0.0
        self.flows.discard(flow)
        self._stale = True  # released capacity rebalances peers
        for r in flow.path:
            r.flows.discard(flow)
        self.sim.trace("flow.complete", name=flow.name,
                       duration=flow.finish_time - flow.start_time,
                       size=flow.size)
        if flow.on_complete is not None:
            flow.on_complete(flow)
        flow.done.fire(flow.finish_time)

    # -- rate computation --------------------------------------------------
    def request_recompute(self) -> None:
        """Ask for a fairness recomputation.

        Inside an event the request is coalesced: the first request
        schedules one flush at the current timestamp (below every ordinary
        priority) and later requests find it pending.  Outside event
        context the recomputation happens immediately.
        """
        self._stale = True
        if self.sim.executing:
            if self._flush_event is None and not self._flushing:
                self._flush_event = self.sim.schedule(
                    0.0, self._on_flush_event, priority=_FLUSH_PRIORITY)
            return
        self._flush()

    def recompute(self) -> None:
        """Force an immediate progressive-filling recomputation."""
        self._stale = True
        self._flush()

    def _on_flush_event(self) -> None:
        self._flush_event = None
        self._flush()

    def _flush(self) -> None:
        """Re-solve while stale, then reschedule the next completion event.
        Re-entrant requests (e.g. an ``on_complete`` callback admitting a
        new flow) only mark the manager stale; the running loop picks them
        up."""
        if self._flushing:
            return
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._flushing = True
        try:
            while self._stale:
                self._stale = False
                self._solve()
        finally:
            self._flushing = False
        self._schedule_next()

    def _solve(self) -> None:
        """Water-fill the whole flow set and re-aim every completion."""
        now = self.sim.now
        flows = self.flows
        finished: list[Flow] = []
        for f in flows:
            if f.rate > 0.0:
                f._sync(now)
                if f.size - f._base <= _EPS:
                    finished.append(f)
            else:
                f._sync_t = now
        for f in finished:
            self._complete(f)
        for f in flows:
            f.rate = 0.0
        self._water_fill({f for f in flows if not f.paused and f.path})
        for f in flows:
            self._aim(f, now)

    def _water_fill(self, active: set[Flow]) -> None:
        """Progressive-filling max-min fair allocation over ``active``."""
        res_flows: dict[Resource, set[Flow]] = {}
        for f in active:
            for r in f.path:
                s = res_flows.get(r)
                if s is None:
                    res_flows[r] = s = set()
                s.add(f)

        remaining_cap = {r: r.capacity for r in res_flows}
        unfrozen = set(active)
        first = True
        while unfrozen:
            # one pass: live set and bottleneck share per resource.  In the
            # first round every live set is the resource's full flow set.
            best_share = math.inf
            rounds: list[tuple[float, set[Flow]]] = []
            for r, fs in res_flows.items():
                lv = fs if first else fs & unfrozen
                if lv:
                    share = remaining_cap[r] / len(lv)
                    rounds.append((share, lv))
                    if share < best_share:
                        best_share = share
            first = False
            if not math.isfinite(best_share):
                for f in unfrozen:  # defensive: pathless stragglers stop
                    f.rate = 0.0
                break
            if best_share <= _EPS:
                # saturated resources: freeze their flows at zero
                frozen_now = set()
                for share, lv in rounds:
                    if share <= _EPS:
                        frozen_now |= lv
                for f in frozen_now:
                    f.rate = 0.0
                unfrozen -= frozen_now
                continue
            # freeze flows crossing the bottleneck resource(s)
            frozen_now = set()
            for share, lv in rounds:
                if share <= best_share + _EPS:
                    frozen_now |= lv
            if len(frozen_now) == len(unfrozen):
                # everything bottlenecked at once: no later round will read
                # remaining_cap, so skip the subtraction sweep
                for f in frozen_now:
                    f.rate = best_share
                break
            for f in frozen_now:
                f.rate = best_share
                for r in f.path:
                    if r in remaining_cap:
                        remaining_cap[r] = max(0.0,
                                               remaining_cap[r] - best_share)
            unfrozen -= frozen_now

    # -- completion scheduling ---------------------------------------------
    def _aim(self, f: Flow, now: float) -> None:
        """Store the finish estimate of ``f``'s current rate.

        The step is floored at 1 µs: a residual of a few bytes divided by a
        MB/s rate is below float time resolution and would otherwise
        re-fire the completion event forever.
        """
        if f.rate > _EPS:
            self._seq += 1
            f._seq = self._seq
            f._finish = now + max(1e-6, (f.size - f._base) / f.rate)
        else:
            f._finish = math.inf

    def _schedule_next(self) -> None:
        t = min((f._finish for f in self.flows), default=math.inf)
        if t == math.inf:
            if self._next_event is not None:
                self._next_event.cancel()
                self._next_event = None
            self._next_at = math.inf
            return
        if self._next_event is not None:
            if self._next_at <= t:
                # the pending event fires no later than the next completion;
                # an early wakeup is a cheap no-op that reschedules, so keep
                # it instead of churning the simulator's event heap
                return
            self._next_event.cancel()
        self._next_at = t
        self._next_event = self.sim.schedule(max(0.0, t - self.sim.now),
                                             self._on_completion_event)

    def _on_completion_event(self) -> None:
        self._next_event = None
        self._next_at = math.inf
        now = self.sim.now
        due = sorted((f for f in self.flows if f._finish <= now + 1e-12),
                     key=lambda f: (f._finish, f._seq))
        finished: list[Flow] = []
        for f in due:
            f._sync(now)
            if f.size - f._base <= _EPS:
                finished.append(f)
            else:
                # sub-resolution residual: re-aim with the 1 µs floor
                self._aim(f, now)
        for f in finished:
            self._complete(f)
        # completions marked the manager stale; the flush rebalances the
        # peers that gained capacity and reschedules
        self._flush()
