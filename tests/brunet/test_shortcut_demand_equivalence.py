"""Demand-driven shortcut scoring ≡ the 1 Hz poller, exactly, on one node.

``ShortcutConnectionOverlord`` holds no timer while it has nothing to
decay and arms one from ``observe`` (or a SHORTCUT link landing under
idle-drop).  The claim pinned here: every tick that has work still runs
at the float instant, and on the state, a poller anchored at ``start()``
would have run it.  The poller itself — the design this replaced — lives
only in the tests, as ``test_overlord_demand_equivalence``'s
``_PeriodicReference`` mixin: it runs the overlord's own ``tick`` at
*every* grid instant, for ever.

One node is driven twice through the same seeded schedule (once per
overlord class) under ``Simulator``; ``connect_to`` / ``drop_connection``
are recorded and link outcomes are scripted, so nothing but the overlord
decides what happens.  Compared: the ``(float time, dest, action)``
sequence, the overlord's state at every stop, and its final state.

Arrival times are drawn from a continuous distribution, so none falls on
a grid instant: same-instant ordering is the one thing the two designs
may legitimately disagree on (DESIGN.md §9.4), and it is not what this
file tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

import repro.brunet.overlords as overlords
from repro.brunet.address import BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import Connection, ConnectionType
from repro.brunet.node import BrunetNode
from repro.brunet.overlords import ShortcutConnectionOverlord
from repro.phys import Internet, Site
from repro.phys.endpoints import Endpoint
from repro.sim import Simulator
from tests.brunet.test_overlord_demand_equivalence import periodic

SHORTCUT_MAX = 2
#: (batch_timers, sweep_granularity); 0.3 does not divide the 1 s tick,
#: so due buckets only survive if they are registered by index
TIMER_MODES = [(False, 1.0), (True, 1.0), (True, 0.3)]


#: the polling design, from the harness all four overlords share
_PeriodicReference = periodic(ShortcutConnectionOverlord)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass
class Schedule:
    t0: float                       # first node.start()
    end: float
    dests: list[BrunetAddress]
    #: dest -> seconds until a requested shortcut lands (absent: it fails)
    landing: dict[BrunetAddress, float]
    #: (time, op, args); ops: traffic, inbound, die, stop, start
    ops: list[tuple] = field(default_factory=list)

    def burst(self, rng: random.Random, dest: BrunetAddress, start: float,
              stop: float, rate: float) -> None:
        """Poisson-ish arrivals toward ``dest`` at ``rate`` packets/s."""
        t = start + rng.random()
        while t < stop:
            self.ops.append((t, "traffic", dest, rng.choice((1, 1, 2, 3))))
            t += rng.expovariate(rate / 1.75)    # 1.75 packets per arrival


def _dests(rng: random.Random, n: int) -> list[BrunetAddress]:
    return [BrunetAddress(rng.getrandbits(160)) for _ in range(n)]


def structured_schedule(seed: int) -> Schedule:
    """Every mechanism once, with seeded jitter on all times and rates."""
    rng = random.Random(seed)
    d = _dests(rng, 7)
    s = Schedule(t0=rng.uniform(0.05, 3.0), end=1800.0, dests=d,
                 landing={d[i]: rng.uniform(0.3, 4.0) for i in (0, 1, 2, 4)})
    # two warm destinations cross the threshold and get their shortcuts
    s.burst(rng, d[0], 5.0, 60.0, rng.uniform(1.1, 1.4))
    s.burst(rng, d[1], 6.0, 45.0, rng.uniform(1.1, 1.4))
    # a third, hotter one: more hot dests than shortcut_max, so once its
    # score passes the colder victim's the victim is evicted
    s.burst(rng, d[2], 50.0, 80.0, rng.uniform(2.2, 2.8))
    # a fourth evicts again — but its attempt fails and it goes cold: the
    # _pending slot outlives every score and must be pruned on schedule
    s.burst(rng, d[3], 75.0, 95.0, rng.uniform(2.8, 3.4))
    # ... silence: scores drain, zero scores are collected after 60 s, the
    # failed slot expires (~340 s after the attempt) and nothing is left.
    # An inbound shortcut then lands on the quiescent node
    s.ops.append((rng.uniform(600.0, 610.0), "inbound", d[5]))
    s.ops.append((rng.uniform(655.0, 660.0), "die", d[5]))
    # traffic resumes after a long gap: the grid is caught up, not reset
    s.burst(rng, d[0], 700.0, 730.0, rng.uniform(1.5, 2.5))
    s.burst(rng, d[6], 705.0, 712.0, 0.8)       # never reaches threshold
    # stop mid-burst, restart, the burst goes on against a fresh overlord
    s.burst(rng, d[4], 1000.0, 1060.0, rng.uniform(2.0, 3.0))
    s.ops.append((rng.uniform(1012.0, 1019.0), "stop"))
    s.ops.append((rng.uniform(1025.0, 1035.0), "start"))
    return s


def soup_schedule(seed: int) -> Schedule:
    """Unstructured: on/off traffic toward six destinations, peers that
    die, inbound shortcuts, a random restart."""
    rng = random.Random(10_000 + seed)
    d = _dests(rng, 8)
    s = Schedule(t0=rng.uniform(0.05, 3.0), end=1500.0, dests=d,
                 landing={x: rng.uniform(0.2, 30.0) for x in d[:6]
                          if rng.random() < 0.7})
    for dest in d[:6]:
        t = rng.uniform(3.0, 200.0)
        while t < 1350.0:
            on = rng.uniform(5.0, 70.0)
            s.burst(rng, dest, t, min(t + on, 1350.0), rng.uniform(0.3, 4.0))
            t += on + rng.choice((rng.uniform(1.0, 30.0),
                                  rng.uniform(70.0, 500.0)))
    for _ in range(6):
        s.ops.append((rng.uniform(50.0, 1400.0), "die", rng.choice(d[:6])))
    for dest in d[6:]:
        s.ops.append((rng.uniform(100.0, 1300.0), "inbound", dest))
    stop = rng.uniform(200.0, 1200.0)
    s.ops.append((stop, "stop"))
    s.ops.append((stop + rng.uniform(0.5, 90.0), "start"))
    return s


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _state(overlord: ShortcutConnectionOverlord) -> tuple:
    return (dict(overlord.scores), dict(overlord.arrivals),
            dict(overlord._pending), dict(overlord._last_nonzero))


def play(schedule: Schedule, overlord_cls, monkeypatch, *, batch: bool,
         granularity: float, idle_drop: float):
    """Drive one node through ``schedule``; returns (log, final state,
    ticks run)."""
    monkeypatch.setattr(overlords, "ShortcutConnectionOverlord",
                        overlord_cls)
    sim = Simulator(seed=7, trace=False)
    host = Site(Internet(sim), "pub").add_host("h")
    # keep-alives off: this node's peers are table entries, not nodes
    config = BrunetConfig(shortcut_max=SHORTCUT_MAX,
                          shortcut_idle_drop=idle_drop, batch_timers=batch,
                          sweep_granularity=granularity,
                          ping_interval=1e9, liveness_timeout=0.0)
    node = BrunetNode(sim, host, BrunetAddress(1 << 159), config, name="n")
    endpoints = {dest: Endpoint(f"150.9.9.{i + 2}", 14001)
                 for i, dest in enumerate(schedule.dests)}
    log: list[tuple] = []
    ticks = [0]

    def land(dest):
        if node.active:
            node.table.add(Connection(dest, endpoints[dest],
                                      ConnectionType.SHORTCUT, sim.now))

    def connect_to(dest, conn_type, **_kwargs):
        log.append((sim.now, dest, "connect"))
        if dest in schedule.landing:
            sim.schedule(schedule.landing[dest], land, dest)

    real_drop = node.drop_connection

    def drop_connection(conn, reason, notify=False):
        log.append((sim.now, conn.peer_addr, f"drop:{reason}"))
        real_drop(conn, reason=reason, notify=notify)

    real_tick = ShortcutConnectionOverlord.tick

    def counted_tick(self):
        ticks[0] += 1
        real_tick(self)

    monkeypatch.setattr(ShortcutConnectionOverlord, "tick", counted_tick)
    node.connect_to = connect_to
    node.drop_connection = drop_connection

    def stop():
        log.append((sim.now, None, ("stop", _state(node.shortcut_overlord))))
        node.stop()

    def die(dest):
        if node.active:
            node.table.remove(dest)

    sim.schedule_at(schedule.t0, node.start, [])
    for t, op, *args in schedule.ops:
        fn = {"traffic": node.inspect_traffic, "inbound": land, "die": die,
              "stop": stop, "start": lambda: node.start([])}[op]
        sim.schedule_at(t, fn, *args)
    sim.run(until=schedule.end)
    assert type(node.shortcut_overlord) is overlord_cls
    return log, _state(node.shortcut_overlord), ticks[0]


def both(schedule: Schedule, monkeypatch, **mode):
    lazy = play(schedule, ShortcutConnectionOverlord, monkeypatch, **mode)
    periodic = play(schedule, _PeriodicReference, monkeypatch, **mode)
    return lazy, periodic


def _actions(log: list[tuple]) -> set[str]:
    return {a for _, _, a in log if isinstance(a, str)}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch,granularity", TIMER_MODES)
@pytest.mark.parametrize("idle_drop", [0.0, 45.0])
@pytest.mark.parametrize("seed", range(4))
def test_structured_schedule_matches_poller(monkeypatch, seed, idle_drop,
                                            batch, granularity):
    schedule = structured_schedule(seed)
    mode = dict(batch=batch, granularity=granularity, idle_drop=idle_drop)
    (log, state, ticks), (ref_log, ref_state, ref_ticks) = both(
        schedule, monkeypatch, **mode)
    assert log == ref_log
    assert state == ref_state
    # the schedule really exercised what it was written for ...
    seen = _actions(ref_log)
    assert {"connect", "drop:shortcut-evicted"} <= seen
    assert ("drop:shortcut-idle" in seen) == (idle_drop > 0)
    connects = [d for _, d, a in ref_log if a == "connect"]
    assert schedule.dests[3] in connects          # the attempt that fails
    assert schedule.dests[4] in connects          # after the restart
    assert schedule.dests[6] not in connects      # stayed under threshold
    # ... and the quiet stretches cost the demand-driven overlord nothing:
    # the poller ticks once a second all the way through
    assert ref_ticks > 1400      # 1.2 s apart on the 0.3 s wheel
    assert ticks < 0.6 * ref_ticks


@pytest.mark.parametrize("batch,granularity", TIMER_MODES)
@pytest.mark.parametrize("idle_drop", [0.0, 45.0])
@pytest.mark.parametrize("seed", range(6))
def test_random_schedule_matches_poller(monkeypatch, seed, idle_drop, batch,
                                        granularity):
    schedule = soup_schedule(seed)
    (log, state, ticks), (ref_log, ref_state, ref_ticks) = both(
        schedule, monkeypatch, batch=batch, granularity=granularity,
        idle_drop=idle_drop)
    assert log == ref_log
    assert state == ref_state
    assert "connect" in _actions(ref_log)
    assert ticks <= ref_ticks


def test_pending_slot_of_a_failed_attempt_expires_on_the_grid(monkeypatch):
    """No traffic follows the failed attempt: the overlord stays armed for
    the slot alone, prunes it at the first grid instant past its expiry,
    and only then lets go of its timer."""
    rng = random.Random(5)
    dest = _dests(rng, 1)[0]
    schedule = Schedule(t0=0.4, end=500.0, dests=[dest], landing={})
    schedule.burst(rng, dest, 2.0, 12.0, 6.0)
    (log, state, ticks), (ref_log, ref_state, _) = both(
        schedule, monkeypatch, batch=False, granularity=1.0, idle_drop=0.0)
    assert log == ref_log and state == ref_state
    assert [a for _, _, a in log] == ["connect"]
    assert state == ({}, {}, {}, {})
    # armed from the first arrival to the tick that pruned the slot:
    # ~ the slot's lifetime, nowhere near the 500 s the poller ran
    attempt = log[0][0]
    ttl = 2.0 * BrunetConfig().uri_give_up_time() + 30.0
    assert ticks == pytest.approx(attempt + ttl, abs=5.0)
