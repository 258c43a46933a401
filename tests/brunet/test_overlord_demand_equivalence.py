"""Deadline-driven overlords ≡ the periodic pollers, exactly, on one node.

Every overlord holds a timer only for the first grid instant at or after
its ``_due()`` and none while that is ``None``.  The claim pinned here:
every tick that has work still runs at the float instant, and on the
state, a poller anchored at ``start()`` would have run it.  The poller
itself — the design this replaced — lives only in this file, as the
``_PeriodicReference`` mixin: it runs the overlord's own ``tick`` at
*every* grid instant, for ever.  ``test_shortcut_demand_equivalence.py``
builds its reference from the same mixin.

One node is driven twice through the same seeded schedule (once with all
four overlords as shipped, once with all four polling) under
``Simulator``.  The world around it is scripted — leaf link attempts,
announces and far CTMs are recorded and answered (or not) by the
schedule — so nothing but the overlords decides what happens.  Compared:
the ``(float time, action)`` sequence, the overlords' state at every
stop, and their final state.

Scripted times are drawn from continuous distributions, so none falls on
a grid instant: same-instant ordering is the one thing the two designs
may legitimately disagree on (DESIGN.md §9.4), and it is not what this
file tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

import repro.brunet.overlords as overlords
from repro.brunet.address import ADDRESS_SPACE, BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.node import BrunetNode
from repro.brunet.overlords import (
    FarConnectionOverlord,
    LeafConnectionOverlord,
    NearConnectionOverlord,
    Overlord,
    ShortcutConnectionOverlord,
)
from repro.brunet.uri import Uri
from repro.phys import Internet, Site
from repro.phys.endpoints import Endpoint
from repro.sim import Simulator
from repro.sim.engine import sweep_wheel

LEAF, NEAR, FAR = (ConnectionType.LEAF, ConnectionType.STRUCTURED_NEAR,
                   ConnectionType.STRUCTURED_FAR)
OVERLORDS = (LeafConnectionOverlord, NearConnectionOverlord,
             FarConnectionOverlord, ShortcutConnectionOverlord)
#: (batch_timers, sweep_granularity); 0.3 does not divide the 5 s grid,
#: so due buckets only survive if they are registered by index
TIMER_MODES = [(False, 1.0), (True, 1.0), (True, 0.3)]
ME = BrunetAddress(1 << 159)
_REAL_TICK = {cls: cls.tick for cls in OVERLORDS}


class _PeriodicReference:
    """The polling design, as a mixin over any overlord: one tick per
    grid instant from ``start()`` on, whether or not anything is due."""

    def start(self) -> None:
        self._poll()

    def _wake(self, _conn=None) -> None:    # no event arms the poller
        pass

    def kick(self) -> None:         # an off-grid tick beside the chain
        self.tick()

    def _poll(self) -> None:
        node = self.node
        if self._stopped or not node.active:
            return
        self.tick()
        cfg = node.config
        interval = getattr(cfg, self.INTERVAL)
        if cfg.batch_timers:
            sweep_wheel(node.sim, cfg.sweep_granularity).schedule(
                self._sweep_key, interval, self._poll)
        else:
            self._timer = node.sim.schedule(interval, self._poll)


def periodic(cls: type[Overlord]) -> type[Overlord]:
    """``cls`` with its timer replaced by the poller."""
    return type(f"Periodic{cls.__name__}", (_PeriodicReference, cls), {})


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _uri(i: int) -> Uri:
    return Uri.udp(f"150.1.0.{i + 2}", 4000)


def _peer(offset: int) -> BrunetAddress:
    return BrunetAddress((int(ME) + offset) % ADDRESS_SPACE)


@dataclass
class Schedule:
    t0: float                       # first node.start()
    end: float
    seeds: list[Uri]                # what node.start() is given
    #: uri -> [(from, until)) windows in which a leaf attempt succeeds
    alive: dict[Uri, list[tuple[float, float]]]
    #: seconds from a leaf attempt to its outcome
    link_delay: float
    fail_delay: float
    #: [(from, until)) windows in which an announce is answered: the
    #: nearest live ring peer on each side links NEAR after ``ring_delay``
    ring_open: list[tuple[float, float]]
    ring_delay: float
    #: per far CTM, in order: seconds until a FAR link lands (None: the
    #: CTM is never answered and its ``_pending`` slot has to expire)
    far_answers: list
    far_count: int = 3
    #: (time, op, args); ops: join, die, stop, start, rebootstrap.
    #: A time given as ``("grid", k)`` is the k-th grid instant after t0,
    #: as a kernel event queued at set-up; ``("sweep", k)`` is the same
    #: instant from inside the sweep-wheel bucket (plain under heap timers)
    ops: list[tuple] = field(default_factory=list)

    def seed_alive(self, uri: Uri, now: float) -> bool:
        return any(a <= now < b for a, b in self.alive.get(uri, ()))


def structured_schedule(seed: int) -> Schedule:
    """Every mechanism once, with seeded jitter on all times."""
    rng = random.Random(seed)
    j = rng.uniform
    s = Schedule(
        t0=j(0.05, 3.0), end=900.0,
        # join with two dead seeds before the live one: two failed leaf
        # attempts, a grid instant apart, before the leaf link lands
        seeds=[_uri(0), _uri(1), _uri(2)],
        alive={_uri(2): [(0.0, 400.0)], _uri(3): [(500.0, 900.0)]},
        link_delay=j(0.1, 0.9), fail_delay=j(6.0, 9.0),
        # the first announce is lost; the ANNOUNCE_RETRY one gets through
        ring_open=[(j(18.0, 22.0), 900.0)], ring_delay=j(0.05, 0.5),
        # far CTM 1 never answers: its slot expires after PENDING_TTL and
        # the freed deficit is topped up on the grid
        far_answers=[j(0.2, 2.0), None, j(0.2, 2.0), j(0.2, 2.0), None]
        + [j(0.2, 2.0) for _ in range(60)])
    # ... settled ring, several re-announce periods ...
    # a closer neighbour joins on the right: relabel trims the old one
    s.ops.append((j(150.0, 170.0), "join", 500))
    # the left neighbour dies: repair announce, next-nearest links
    s.ops.append((j(200.0, 220.0), "die", "left"))
    # a far link dies: the deficit is topped up
    s.ops.append((j(260.0, 280.0), "die", "far"))
    # another dies *on* a grid instant, by an event queued long before:
    # it runs ahead of the poller's tick there, which tops up at once
    s.ops.append((("grid", 62), "die", "far"))
    # ... and one dies in a keep-alive sweep that shares a bucket with the
    # far tick: batched, the tick sorts ahead of it and has already run
    s.ops.append((("sweep", 70), "die", "far"))
    # the leaf seed dies after its window closed: the overlord walks the
    # (dead) rotation until rebootstrap hands it a live URI
    s.ops.append((j(420.0, 440.0), "die", "leaf"))
    s.ops.append((j(520.0, 540.0), "rebootstrap", [_uri(3)]))
    # stop mid-life, restart against the live seed only: a fresh join
    stop = j(600.0, 640.0)
    s.ops.append((stop, "stop"))
    s.ops.append((stop + j(3.0, 20.0), "start", [_uri(3)]))
    # stop again with a leaf attempt in flight, and come back
    s.ops.append((j(700.0, 720.0), "die", "leaf"))
    stop = j(723.0, 726.0)
    s.ops.append((stop, "stop"))
    s.ops.append((stop + j(1.0, 9.0), "start", [_uri(0), _uri(3)]))
    return s


def soup_schedule(seed: int) -> Schedule:
    """Unstructured: seeds that come and go, a ring that answers in
    windows, neighbours and far peers that die at random, restarts."""
    rng = random.Random(20_000 + seed)
    j = rng.uniform
    end = 1200.0

    def windows(mean_on: float, mean_off: float) -> list:
        out, t = [], j(0.0, mean_off)
        while t < end:
            on = rng.expovariate(1.0 / mean_on)
            out.append((t, t + on))
            t += on + rng.expovariate(1.0 / mean_off)
        return out

    s = Schedule(
        t0=j(0.05, 3.0), end=end, seeds=[_uri(i) for i in range(3)],
        alive={_uri(i): windows(200.0, 60.0) for i in range(1, 5)},
        link_delay=j(0.05, 2.0), fail_delay=j(2.0, 12.0),
        ring_open=windows(300.0, 25.0), ring_delay=j(0.05, 3.0),
        far_answers=[None if rng.random() < 0.3 else j(0.1, 20.0)
                     for _ in range(400)],
        far_count=rng.choice((0, 2, 3, 5)))
    for _ in range(14):
        s.ops.append((j(20.0, end), "die",
                      rng.choice(("left", "right", "far", "far", "leaf"))))
    for _ in range(4):
        s.ops.append((j(20.0, end), "join", rng.randrange(1, 5000)
                      * rng.choice((-1, 1))))
    s.ops.append((j(100.0, end), "rebootstrap", [_uri(3), _uri(4)]))
    for _ in range(2):
        stop = j(100.0, end - 100.0)
        s.ops.append((stop, "stop"))
        s.ops.append((stop + j(0.5, 60.0), "start",
                      [_uri(i) for i in rng.sample(range(5), 3)]))
    return s


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _state(node: BrunetNode) -> tuple:
    leaf, near, far, shortcut = node.overlords
    return ((leaf._seed_index, leaf._attempting),
            (near._last_announce, near._relabeled_version),
            (list(far._pending), repr(far._rng.bit_generator.state)),
            sorted((int(c.peer_addr), sorted(t.value for t in c.types))
                   for c in node.table.all()))


def play(schedule: Schedule, reference: bool, monkeypatch, *, batch: bool,
         granularity: float):
    """Drive one node through ``schedule``; returns (log, final state,
    ticks run per overlord class)."""
    for cls in OVERLORDS:
        monkeypatch.setattr(overlords, cls.__name__,
                            periodic(cls) if reference else cls)
    sim = Simulator(seed=7, trace=False)
    host = Site(Internet(sim), "pub").add_host("h")
    # keep-alives off: this node's peers are table entries, not nodes
    config = BrunetConfig(far_count=schedule.far_count, batch_timers=batch,
                          sweep_granularity=granularity,
                          ping_interval=1e9, liveness_timeout=0.0)
    node = BrunetNode(sim, host, ME, config, name="n")
    log: list[tuple] = []
    ticks = {cls.__name__: 0 for cls in OVERLORDS}
    for cls in OVERLORDS:
        def counted(self, _real=_REAL_TICK[cls], _name=cls.__name__):
            ticks[_name] += 1
            _real(self)
        monkeypatch.setattr(cls, "tick", counted)
    #: ring peers that exist (linked to or not), as offsets from ME
    ring = {-90_000, -40_000, -7_000, 9_000, 30_000, 80_000}
    far_pool = iter(range(10 ** 9, 10 ** 12, 10 ** 9))
    ctms = iter(schedule.far_answers)

    def endpoint(addr: BrunetAddress) -> Endpoint:
        return Endpoint("150.9.%d.%d" % divmod(int(addr) % 60_000, 250),
                        14001)

    def land(addr: BrunetAddress, conn_type, epoch) -> None:
        if node.active and node.started_at == epoch:
            node.table.add(Connection(addr, endpoint(addr), conn_type,
                                      sim.now))

    def link(target, uris, conn_type, on_success=None, on_fail=None,
             trace=None):
        assert target is None and conn_type is LEAF
        log.append((sim.now, "link", str(uris[0])))
        epoch = node.started_at

        def outcome(ok: bool) -> None:
            if not (node.active and node.started_at == epoch):
                return              # the real linker's cancel_all()
            if ok:
                on_success(node.table.add(Connection(
                    _peer(10 ** 15
                          + int(uris[0].endpoint.ip.rpartition(".")[2])),
                    uris[0].endpoint, LEAF, sim.now)))
            else:
                on_fail()

        if schedule.seed_alive(uris[0], sim.now):
            sim.schedule(schedule.link_delay, outcome, True)
        else:
            sim.schedule(schedule.fail_delay, outcome, False)

    def neighbours() -> list[int]:
        left = max((o for o in ring if o < 0), default=None)
        right = min((o for o in ring if o > 0), default=None)
        return [o for o in (left, right) if o is not None]

    def land_near(offset: int, epoch) -> None:
        if offset in ring:          # it may have left while we linked
            land(_peer(offset), NEAR, epoch)

    def connect_to(dest, conn_type, via_leaf=False, fanout=0):
        epoch = node.started_at
        if dest == node.addr:
            log.append((sim.now, "announce"))
            if any(a <= sim.now < b for a, b in schedule.ring_open):
                for offset in neighbours():
                    sim.schedule(schedule.ring_delay, land_near, offset,
                                 epoch)
            return
        assert conn_type is FAR
        log.append((sim.now, "far", int(dest)))
        delay = next(ctms)
        if delay is not None:
            sim.schedule(delay, land, _peer(next(far_pool)), FAR, epoch)

    real_drop = node.drop_connection

    def drop_connection(conn, reason, notify=False):
        log.append((sim.now, f"drop:{reason}", int(conn.peer_addr)))
        real_drop(conn, reason=reason, notify=notify)

    node.linker.start = link
    node.connect_to = connect_to
    node.drop_connection = drop_connection

    def join(offset: int) -> None:
        """A new ring peer appears and links to us (its own announce)."""
        ring.add(offset)
        land_near(offset, node.started_at)

    def leave(offset: int) -> None:
        ring.discard(offset)
        node.table.remove(_peer(offset))

    def die(which: str) -> None:
        if not node.active:
            return
        if which in ("left", "right"):
            side = [o for o in ring if (o < 0) == (which == "left")]
            if len(side) > 1:       # keep one peer a side to repair onto
                leave(max(side) if which == "left" else min(side))
            return
        conns = node.table.by_type(FAR if which == "far" else LEAF)
        if conns:
            node.table.remove(min(conns, key=lambda c: int(c.peer_addr))
                              .peer_addr)

    def stop() -> None:
        log.append((sim.now, "stop", _state(node)))
        node.stop()

    def start(uris) -> None:
        if not node.active:
            node.start(uris)

    def rebootstrap(uris) -> None:
        log.append((sim.now, "rebootstrap", node.rebootstrap(uris)))

    wheel = sweep_wheel(sim, granularity)

    def grid(k: int) -> tuple[float, int]:
        """The k-th instant of the tick grid anchored at t0 (and its
        bucket), walked the way the timer mode walks it."""
        t, bucket = schedule.t0, 0
        for _ in range(k):
            t += config.overlord_interval
            if batch:
                bucket = wheel.bucket_at(t)
                t = bucket * wheel.granularity
        return t, bucket

    sim.schedule_at(schedule.t0, node.start, schedule.seeds)
    for t, op, *args in schedule.ops:
        fn = {"join": join, "die": die, "stop": stop, "start": start,
              "rebootstrap": rebootstrap}[op]
        if isinstance(t, tuple):
            kind, (t, bucket) = t[0], grid(t[1])
            if kind == "sweep" and batch:
                # where the node's own keep-alive sweep sits in the bucket
                wheel.schedule_bucket((int(ME), "n", "ping.op"), bucket,
                                      lambda fn=fn, args=args: fn(*args))
                continue
        sim.schedule_at(t, fn, *args)
    sim.run(until=schedule.end)
    assert all(type(o).__name__.startswith("Periodic") == reference
               for o in node.overlords)
    return log, _state(node), ticks


def both(schedule: Schedule, monkeypatch, **mode):
    lazy = play(schedule, False, monkeypatch, **mode)
    reference = play(schedule, True, monkeypatch, **mode)
    return lazy, reference


def _actions(log: list[tuple]) -> list[str]:
    return [entry[1] for entry in log]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch,granularity", TIMER_MODES)
@pytest.mark.parametrize("seed", range(4))
def test_structured_schedule_matches_pollers(monkeypatch, seed, batch,
                                             granularity):
    schedule = structured_schedule(seed)
    (log, state, ticks), (ref_log, ref_state, ref_ticks) = both(
        schedule, monkeypatch, batch=batch, granularity=granularity)
    assert log == ref_log
    assert state == ref_state
    # the schedule really exercised what it was written for ...
    seen = _actions(ref_log)
    links = [e[2] for e in ref_log if e[1] == "link"]
    assert links[:3] == [str(_uri(0)), str(_uri(1)), str(_uri(2))]
    assert str(_uri(3)) in links                 # after rebootstrap
    assert seen.count("announce") > 25           # joins, repairs, 30 s
    assert "drop:near-trimmed" in seen
    assert seen.count("far") >= 3 + 2 + 3 + 3 + 3    # incl. two expiries
    assert seen.count("stop") == 2
    # ... and the settled stretches cost the deadline-driven overlords
    # next to nothing: the pollers tick every 5 s all the way through
    for name in ("LeafConnectionOverlord", "FarConnectionOverlord"):
        assert ref_ticks[name] > 150
        assert ticks[name] < 0.25 * ref_ticks[name], (name, ticks)
    assert ticks["NearConnectionOverlord"] < 0.5 * ref_ticks[
        "NearConnectionOverlord"]


@pytest.mark.parametrize("batch,granularity", TIMER_MODES)
@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_matches_pollers(monkeypatch, seed, batch,
                                         granularity):
    schedule = soup_schedule(seed)
    (log, state, ticks), (ref_log, ref_state, ref_ticks) = both(
        schedule, monkeypatch, batch=batch, granularity=granularity)
    assert log == ref_log
    assert state == ref_state
    assert {"link", "announce"} <= set(_actions(ref_log))
    assert all(ticks[name] <= ref_ticks[name] for name in ticks)


def test_unanswered_far_ctms_expire_on_the_grid(monkeypatch):
    """No CTM is ever answered and nothing else happens: the far overlord
    stays armed for its earliest ``_pending`` expiry alone, re-issues the
    batch at the first grid instant past it, and ticks nowhere else."""
    schedule = Schedule(
        t0=0.4, end=400.0, seeds=[_uri(0)], alive={_uri(0): [(0.0, 1e9)]},
        link_delay=0.3, fail_delay=5.0, ring_open=[(0.0, 1e9)],
        ring_delay=0.2, far_answers=[None] * 100)
    (log, state, ticks), (ref_log, ref_state, ref_ticks) = both(
        schedule, monkeypatch, batch=False, granularity=1.0)
    assert log == ref_log and state == ref_state
    batches = sorted({t for t, action, *_ in log if action == "far"})
    ttl = FarConnectionOverlord.PENDING_TTL
    assert len(batches) >= 10
    # one batch per expiry: the first grid instant at or past the TTL
    assert all(ttl - 1e-9 <= b - a < ttl + 5.0
               for a, b in zip(batches, batches[1:]))
    assert ticks["FarConnectionOverlord"] <= len(batches) + 2
    assert ref_ticks["FarConnectionOverlord"] >= 79
