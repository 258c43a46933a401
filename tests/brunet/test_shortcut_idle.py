"""A quiescent overlay schedules nothing for shortcut scoring — nor for
leaf or far maintenance.

The shortcut overlord is traffic-driven (§IV-E): with no virtual-IP
packets there are no scores to decay, so it must hold no timer — in the
simulator (where its 1 Hz poll used to be 58 % of all periodic timer
firings) and in a live daemon (which used to wake once a second for it).
Leaf and far overlords are event-driven too: a settled node's periodic
load is its keep-alive sweep and the near overlord's re-announce.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.node import BrunetNode
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.sim.engine import sweep_wheel
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport
from tests.conftest import build_overlay

NODES = 16
WINDOW = 200.0


def _owner(fn) -> str:
    """``Class.method`` for a bound method, else the function's name."""
    owner = getattr(fn, "__self__", None)
    name = getattr(fn, "__name__", repr(fn))
    return f"{type(owner).__name__}.{name}" if owner is not None else name


def _count_registrations(sim, wheel=None) -> Counter:
    """Wrap the two funnels every timer goes through — the kernel's
    ``schedule_at`` and, under ``batch_timers``, the sweep wheel's
    ``schedule_bucket`` — and count registrations by handler."""
    seen: Counter = Counter()

    def counting(real):
        def wrapper(when, fn, *args, **kwargs):
            seen[_owner(fn)] += 1
            return real(when, fn, *args, **kwargs)
        return wrapper

    sim.schedule_at = counting(sim.schedule_at)
    if wheel is not None:
        real_bucket = wheel.schedule_bucket

        def schedule_bucket(key, bucket, fn):
            seen[_owner(fn)] += 1
            real_bucket(key, bucket, fn)

        wheel.schedule_bucket = schedule_bucket
    return seen


@pytest.mark.parametrize("batch", [False, True])
def test_quiescent_overlay_schedules_no_shortcut_ticks(sim, internet, batch):
    nodes, _ = build_overlay(sim, internet, NODES,
                             config=BrunetConfig(batch_timers=batch))
    assert all(n.in_ring for n in nodes)
    sim.run(until=sim.now + 60.0)   # the last joiner's far CTMs settle
    seen = _count_registrations(sim, sweep_wheel(sim) if batch else None)
    sim.run(until=sim.now + WINDOW)

    idle = {k: v for k, v in seen.items()
            if k.startswith(("ShortcutConnectionOverlord",
                             "LeafConnectionOverlord",
                             "FarConnectionOverlord"))}
    assert idle == {}
    for node in nodes:
        assert node.shortcut_overlord._timer is None
        assert not node.shortcut_overlord.timer_pending
    # what is left of the periodic load: keep-alive / 7.5 s + re-announce
    # / 30 s = 0.17 per node-second (0.73 while leaf, near and far polled
    # every 5 s; 1.73 with the 1 Hz shortcut poll on top)
    assert seen["NearConnectionOverlord._fire"] <= NODES * (WINDOW / 30 + 1)
    periodic = sum(v for k, v in seen.items()
                   if k.endswith("Overlord._fire")
                   or k == "BrunetNode._ping_tick")
    assert 0 < periodic <= 0.2 * NODES * WINDOW, (periodic, dict(seen))


def test_traffic_arms_one_node_and_only_while_it_lasts(sim, internet):
    nodes, _ = build_overlay(sim, internet, NODES)
    sender, others = nodes[3], nodes[:3] + nodes[4:]
    dest = BrunetAddress((int(nodes[9].addr) + 12345) % (1 << 160))
    sender.inspect_traffic(dest, 3)
    assert sender.shortcut_overlord.timer_pending
    assert not any(n.shortcut_overlord.timer_pending for n in others)
    # 3 packets drain in 8 ticks; the zero score is collected 60 s later
    # and the timer goes with it
    sim.run(until=sim.now + 60.0)
    assert sender.shortcut_overlord.score_of(dest) == 0.0
    assert sender.shortcut_overlord.timer_pending
    sim.run(until=sim.now + 15.0)
    assert not sender.shortcut_overlord.scores
    assert not sender.shortcut_overlord.timer_pending
    assert sender.shortcut_overlord._timer is None


def test_live_idle_overlay_holds_no_shortcut_timer():
    """Two live daemons' worth of node: linked, no virtual-IP traffic —
    no shortcut handle on the asyncio loop; the first tunnelled packet
    arms the sender and nobody else."""
    ips = ["10.128.9.2", "10.128.9.3"]
    config = BrunetConfig(far_count=0, link_resend_interval=0.3,
                          overlord_interval=0.2, shortcut_tick=0.05)

    async def scenario():
        kernel = RealtimeKernel(seed=3)
        transports = [await UdpTransport.create(kernel, "127.0.0.1", 0,
                                                name=f"n{i}")
                      for i in range(2)]
        nodes = [BrunetNode(kernel, None, addr_for_ip(ip), config,
                            transport=t, name=t.name)
                 for ip, t in zip(ips, transports)]
        routers = [IpopRouter(n, ip) for n, ip in zip(nodes, ips)]
        try:
            nodes[0].start([])
            nodes[1].start([transports[0].local_uri])
            for _ in range(100):
                if all(n.in_ring for n in nodes):
                    break
                await asyncio.sleep(0.05)
            assert all(n.in_ring for n in nodes)
            await asyncio.sleep(0.3)            # six shortcut ticks' worth
            for node in nodes:
                assert node.shortcut_overlord._timer is None
                assert not node.shortcut_overlord.timer_pending
            got = []
            routers[1].bind("udp", 7, got.append)
            routers[0].send_ip(ips[1], "udp", 7, "hello", 64)
            assert nodes[0].shortcut_overlord._timer.pending
            await asyncio.sleep(0.2)
            assert [p.payload for p in got] == ["hello"]
            # one-way traffic: the receiver sent nothing, scored nothing
            # and still holds no handle
            assert nodes[1].shortcut_overlord._timer is None
            assert nodes[0].shortcut_overlord.timer_pending
        finally:
            for node in nodes:
                node.stop()

    asyncio.run(scenario())
