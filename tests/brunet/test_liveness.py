"""Liveness layer: keep-alive pings and zombie detection.

Crashed peers leave no close-notify; the only failure signals are (a) a
run of unanswered pings and (b) a ``PingReply`` whose ``known`` flag says
the peer holds no state for us (it restarted).  These tests pin each
signal down in isolation, and that nothing else drops a link.
"""

from repro.brunet import BrunetConfig
from repro.fault import FaultSchedule
from tests.conftest import build_overlay


def _conn_pair(nodes):
    """Some (a, b) from the overlay that hold a connection to each other."""
    for a in nodes:
        for conn in a.table.all():
            b = next((n for n in nodes if n.addr == conn.peer_addr), None)
            if b is not None and b.table.get(a.addr) is not None:
                return a, b
    raise AssertionError("no connected pair in overlay")


def test_zombie_connections_resolved_via_known_flag(sim, internet):
    """A peer that crash-restarts at the same endpoint answers pings again
    but holds no connection state.  ``known=False`` must resolve every
    stale one-way link well before any ping ever times out — either the
    holder drops it (peer-forgot) or the restarted node has re-linked,
    making the link two-way again."""
    _zombie_scenario(sim, internet, BrunetConfig())


def test_zombie_connections_resolved_via_known_flag_in_codec_mode(sim,
                                                                  internet):
    """The same, with keep-alives crossing as ``wire.ping_frame`` /
    ``ping_reply_frame`` bytes: the ``known`` byte must reach the
    handler."""
    _zombie_scenario(sim, internet, BrunetConfig(wire_mode="codec"))


def _zombie_scenario(sim, internet, config):
    nodes, _ = build_overlay(sim, internet, 6, config=config)
    _a, b = _conn_pair(nodes)
    holders = [n for n in nodes if n is not b and n.table.get(b.addr)]
    assert holders
    # crash + instant restart: same host, same port, empty table
    b.stop()
    b.start([])
    assert all(b.table.get(n.addr) is None for n in holders)
    cfg = b.config
    # b answers every ping, so unanswered_pings never accumulates; only
    # the known=False path can clear or re-validate the zombies
    sim.run(until=sim.now + 2 * cfg.ping_interval + 5.0)
    for n in nodes:
        if n is not b and n.table.get(b.addr) is not None:
            assert b.table.get(n.addr) is not None  # no one-way links left
    drops = [d for _t, d in sim.tracer.get("conn.drop")
             if d.get("reason") == "peer-forgot"]
    assert drops  # the flag actually fired somewhere


def test_silent_crash_detected_by_ping_timeout(sim, internet):
    nodes, _ = build_overlay(sim, internet, 6)
    a, b = _conn_pair(nodes)
    b.stop()
    cfg = a.config
    budget = cfg.ping_interval * (cfg.ping_retries + 2) + 10.0
    sim.run(until=sim.now + budget)
    assert a.table.get(b.addr) is None


def test_liveness_timeout_zero_disables_backstop(sim, internet):
    """With ping accounting out of the picture a blacked-out link is never
    dropped: keep-alive has no second, ``last_heard`` timeout."""
    config = BrunetConfig(ping_retries=10_000)
    nodes, _ = build_overlay(sim, internet, 4, config=config)
    a, b = _conn_pair(nodes)
    faults = FaultSchedule(sim, internet)
    faults.blackout(sim.now, 10_000.0, a.host, b.host)
    sim.run(until=sim.now + 300.0)
    assert a.table.get(b.addr) is not None  # nothing may ever drop it


def test_healthy_links_never_dropped_by_liveness(sim, internet):
    nodes, _ = build_overlay(sim, internet, 6)
    before = {n.name: len(n.table.all()) for n in nodes}
    sim.run(until=sim.now + 400.0)
    reasons = {d.get("reason") for _t, d in sim.tracer.get("conn.drop")}
    assert not reasons & {"ping-timeout", "peer-forgot"}
    for n in nodes:
        assert len(n.table.all()) >= before[n.name]
