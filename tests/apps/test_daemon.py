"""WowDaemon: control protocol, cached-peer bootstrap, graceful drain.

Everything runs in-process over real loopback UDP sockets and unix
control sockets — the same code paths ``python -m repro.apps.daemon``
exercises, minus the subprocess spawn (tests/apps/test_swarm.py covers
the process-level path).
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.apps.daemon import WowDaemon
from repro.brunet.bootstrap import PeerCache
from repro.brunet.config import BrunetConfig
from repro.brunet.uri import Uri
from repro.check.invariants import ring_verdict

FAST = BrunetConfig(link_resend_interval=0.1, link_max_retries=3,
                    overlord_interval=0.1, ping_interval=0.5,
                    wire_mode="codec")


async def _ctl(path: str, cmd: str, **params) -> dict:
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(json.dumps({"cmd": cmd, **params}).encode() + b"\n")
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    return reply


async def _wait_for(predicate, timeout: float = 20.0, step: float = 0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(step)
    return False


def test_two_daemons_form_ring_and_answer_control(tmp_path):
    async def scenario():
        a = WowDaemon("10.128.0.2", config=FAST, name="a",
                      control_path=str(tmp_path / "a.sock"))
        await a.start()
        seed = Uri.udp(*a.transport.local_endpoint)
        b = WowDaemon("10.128.0.3", seed_uris=[seed], config=FAST, name="b",
                      control_path=str(tmp_path / "b.sock"))
        await b.start()
        assert await _wait_for(
            lambda: a.node.in_ring and b.node.in_ring), "ring never formed"

        status = await _ctl(str(tmp_path / "a.sock"), "status")
        assert status["ok"] and status["in_ring"]
        assert status["vip"] == "10.128.0.2"
        assert status["right"] == b.node.addr.hex()
        # a status is its node's census record plus daemon-only fields,
        # and the simulator's ring verdict reads it as it stands
        status_b = await _ctl(str(tmp_path / "b.sock"), "status")
        for daemon, st in ((a, status), (b, status_b)):
            assert st.items() >= daemon.node.census().items()
        assert ring_verdict([status, status_b]) == []

        peers = await _ctl(str(tmp_path / "b.sock"), "peers")
        assert any(p["addr"] == a.node.addr.hex() for p in peers["peers"])

        links = await _ctl(str(tmp_path / "a.sock"), "links")
        assert "in_flight" in links  # linker snapshot is JSON-clean

        ping = await _ctl(str(tmp_path / "a.sock"), "ping",
                          vip="10.128.0.3", timeout=5.0)
        assert ping["replied"] and 0 < ping["rtt"] < 5.0
        # the control handler is a task, outside any kernel callback: its
        # clock reads the wall clock, not a stale stamp
        again = await _ctl(str(tmp_path / "a.sock"), "status")
        assert again["uptime"] > status["uptime"]

        bogus = await _ctl(str(tmp_path / "a.sock"), "no-such-cmd")
        assert not bogus["ok"] and "unknown command" in bogus["error"]

        await b.shutdown("test")
        await a.shutdown("test")

    asyncio.run(scenario())


def test_restart_rejoins_via_peer_cache_with_seeds_dead(tmp_path):
    """The tentpole drill, in-process: a node that cached its peers
    rejoins after restart even though its only configured seed is dead."""
    async def scenario():
        seed = WowDaemon("10.128.0.2", config=FAST, name="seed")
        await seed.start()
        seed_uri = Uri.udp(*seed.transport.local_endpoint)
        # a second stable node that will outlive the seed
        survivor = WowDaemon("10.128.0.3", seed_uris=[seed_uri],
                             config=FAST, name="survivor")
        await survivor.start()
        victim = WowDaemon("10.128.0.4", seed_uris=[seed_uri], config=FAST,
                           name="victim",
                           peer_cache_path=str(tmp_path / "v.json"))
        await victim.start()
        all_up = [seed, survivor, victim]
        assert await _wait_for(
            lambda: all(d.node.in_ring for d in all_up)), "no initial ring"

        await victim.shutdown("drill")  # persists its peer cache
        cached = PeerCache(str(tmp_path / "v.json")).load()
        assert cached, "graceful shutdown saved no peers"

        await seed.shutdown("killed")  # every configured seed is now gone
        await asyncio.sleep(0.2)       # let the port actually release

        reborn = WowDaemon("10.128.0.4", seed_uris=[seed_uri], config=FAST,
                           name="reborn",
                           peer_cache_path=str(tmp_path / "v.json"))
        await reborn.start()
        # the cached (still live) survivor is in the rotation, so the
        # dead configured seed is no longer a single point of failure
        survivor_uri = Uri.udp(*survivor.transport.local_endpoint)
        assert survivor_uri in reborn.node.bootstrap_uris
        assert await _wait_for(lambda: reborn.node.in_ring), (
            "restarted node never rejoined through its cached peers")

        await reborn.shutdown("test")
        await survivor.shutdown("test")

    asyncio.run(scenario())


def test_shutdown_notifies_peers_and_drops_state_fast(tmp_path):
    """Graceful drain sends close-notify: the surviving peer drops the
    connection immediately instead of waiting out the ping timeout."""
    async def scenario():
        a = WowDaemon("10.128.0.2", config=FAST, name="a")
        await a.start()
        seed = Uri.udp(*a.transport.local_endpoint)
        b = WowDaemon("10.128.0.3", seed_uris=[seed], config=FAST, name="b")
        await b.start()
        assert await _wait_for(lambda: a.node.in_ring and b.node.in_ring)

        b_addr = b.node.addr
        await b.shutdown("drill")
        # far sooner than the ping-timeout drop (up to 1.75 s here, 52.5 s
        # at the defaults)
        assert await _wait_for(
            lambda: b_addr not in a.node.table, timeout=1.0), (
            "close-notify did not drop peer state promptly")
        await a.shutdown("test")

    asyncio.run(scenario())


def test_cache_file_written_on_timer(tmp_path):
    async def scenario():
        a = WowDaemon("10.128.0.2", config=FAST, name="a")
        await a.start()
        seed = Uri.udp(*a.transport.local_endpoint)
        b = WowDaemon("10.128.0.3", seed_uris=[seed], config=FAST, name="b",
                      peer_cache_path=str(tmp_path / "b.json"),
                      cache_interval=0.2)
        await b.start()
        assert await _wait_for(lambda: b.node.in_ring)
        assert await _wait_for(
            lambda: os.path.exists(tmp_path / "b.json"), timeout=5.0), (
            "timer never persisted the peer cache")
        await b.shutdown("test")
        await a.shutdown("test")

    asyncio.run(scenario())


def test_oversized_control_line_gets_an_error_reply(tmp_path, caplog):
    """A request line past the stream limit must not escape the handler
    as an unhandled ``ValueError`` (a logged traceback and no reply): it
    gets ``{"ok": false}``, the connection closes, the daemon answers on."""
    sock = str(tmp_path / "d.sock")

    async def scenario():
        d = WowDaemon("10.128.0.2", config=FAST, name="d",
                      control_path=sock)
        await d.start()
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b"x" * (128 * 1024))
        await writer.drain()
        reply = await asyncio.wait_for(reader.readline(), 5.0)
        assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed
        writer.close()
        status = await _ctl(sock, "status")
        await d.shutdown("test")
        return reply, status

    with caplog.at_level("ERROR"):
        reply, status = asyncio.run(scenario())
    decoded = json.loads(reply)
    assert decoded["ok"] is False and "line" in decoded["error"]
    assert status["ok"] and status["vip"] == "10.128.0.2"
    assert not [r for r in caplog.records if r.levelname == "ERROR"]
