"""Live-socket lifecycle: close/shutdown must be quiet and leak-free.

The sim transport can be torn down in any order without consequence; a
real asyncio datagram endpoint cannot.  These tests pin the three
failure modes a long-running daemon host actually hits:

* closing a transport mid-handshake must not surface unhandled task
  exceptions or "Task was destroyed but it is pending!" noise;
* a full daemon start/shutdown cycle must not leak file descriptors
  (a supervisor restarting a flapping daemon would otherwise exhaust
  the fd table);
* a datagram arriving after ``close()`` is dropped silently.
"""

from __future__ import annotations

import asyncio
import gc
import os

from repro.apps.daemon import WowDaemon
from repro.brunet.config import BrunetConfig
from repro.brunet.node import BrunetNode
from repro.brunet.uri import Uri
from repro.ipop.mapping import addr_for_ip
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport

FAST = BrunetConfig(link_resend_interval=0.05, link_max_retries=3,
                    overlord_interval=0.05, ping_interval=0.5,
                    wire_mode="codec")


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_close_mid_handshake_is_quiet():
    """Tear a node down while its linker is mid-retry against a dead
    seed; no unhandled exceptions may reach the event loop."""
    unhandled = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _l, ctx: unhandled.append(ctx))
        kernel = RealtimeKernel(seed=0)
        transport = await UdpTransport.create(kernel, "127.0.0.1", 0)
        node = BrunetNode(kernel, None, addr_for_ip("10.200.0.2"),
                          FAST, transport=transport)
        # a port with nobody listening: the handshake can never complete
        node.start([Uri.udp("127.0.0.1", 1)])
        await asyncio.sleep(0.12)  # at least one link send in flight
        node.stop(notify=True)
        await asyncio.sleep(0.12)  # late timers would fire (and blow) here
        gc.collect()
        await asyncio.sleep(0)

    asyncio.run(scenario())
    assert unhandled == [], f"event-loop noise after close: {unhandled}"


def test_daemon_cycle_does_not_leak_fds(tmp_path):
    """start()+shutdown() several daemons in sequence; fd count must
    return to baseline (socket, control socket, cache file all closed)."""

    async def cycle(tag: str, exercise_ctl: bool) -> None:
        d = WowDaemon(f"10.200.1.{tag}", config=FAST,
                      control_path=str(tmp_path / f"{tag}.sock"),
                      peer_cache_path=str(tmp_path / f"{tag}.json"))
        await d.start()
        if exercise_ctl:  # a control handler task must not pin fds either
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / f"{tag}.sock"))
            writer.write(b'{"cmd": "status"}\n')
            await writer.drain()
            assert (await reader.readline()).startswith(b'{"ok": true')
            writer.close()
        await d.shutdown("cycle")
        await asyncio.sleep(0.05)

    # warm-up: first pass interns module/loop plumbing that costs fds
    asyncio.run(cycle("2", exercise_ctl=True))
    gc.collect()
    baseline = _open_fds()
    for i in range(3):
        asyncio.run(cycle(str(3 + i), exercise_ctl=True))
    gc.collect()
    assert _open_fds() <= baseline, (
        f"fd leak: {baseline} before, {_open_fds()} after 3 cycles")


def test_datagram_after_close_dropped_silently():
    """A frame that races the socket teardown is dropped, not raised."""
    unhandled = []
    received = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _l, ctx: unhandled.append(ctx))
        kernel = RealtimeKernel(seed=0)
        receiver = await UdpTransport.create(kernel, "127.0.0.1", 0)
        dst = receiver.open(lambda src, msg, size: received.append(msg))
        sender = await UdpTransport.create(kernel, "127.0.0.1", 0)

        receiver.close()
        # the OS socket is gone (or closing); both the late local send
        # and anything in flight must vanish without an exception
        sender.send(dst, b"too late", size_hint=8)
        await asyncio.sleep(0.05)
        sender.close()
        await asyncio.sleep(0.05)

    asyncio.run(scenario())
    assert received == []
    assert unhandled == [], f"teardown noise: {unhandled}"


def test_idle_live_overlay_fires_no_overlord_timer():
    """Two linked, idle nodes on real sockets and the wall clock: over 20
    grid intervals the loop wakes for keep-alive sweeps only (the pollers
    woke it 3 × 20 times per node on top) — leaf and far hold no handle,
    near holds one, for its re-announce half a minute out."""
    config = BrunetConfig(far_count=0, link_resend_interval=0.2,
                          overlord_interval=0.1, ping_interval=1.0,
                          wire_mode="codec")
    window = 20 * config.overlord_interval

    async def scenario():
        kernel = RealtimeKernel(seed=1)
        transports = [await UdpTransport.create(kernel, "127.0.0.1", 0,
                                                name=f"n{i}")
                      for i in range(2)]
        nodes = [BrunetNode(kernel, None, addr_for_ip(f"10.200.1.{i + 2}"),
                            config, transport=t, name=t.name)
                 for i, t in enumerate(transports)]
        try:
            nodes[0].start([])
            nodes[1].start([transports[0].local_uri])
            for _ in range(100):
                if all(n.in_ring for n in nodes):
                    break
                await asyncio.sleep(0.05)
            assert all(n.in_ring for n in nodes)
            await asyncio.sleep(0.5)    # join-time ticks run out
            before = kernel.events_processed
            await asyncio.sleep(window)
            fired = kernel.events_processed - before
            for node in nodes:
                leaf, near, far, shortcut = node.overlords
                assert not leaf.timer_pending and leaf._timer is None
                assert not far.timer_pending and not shortcut.timer_pending
                assert near._timer.pending
                assert near._armed_at - kernel.now > window
            return fired
        finally:
            for node in nodes:
                node.stop()

    fired = asyncio.run(scenario())
    keepalives = 2 * (window / (config.ping_interval / 2) + 1)
    assert fired <= keepalives, (fired, keepalives)
