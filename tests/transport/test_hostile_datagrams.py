"""Hostile datagrams at a running node, over real loopback.

2 000 frames, each a real protocol message (the round-trip generators
of ``tests/wire/test_codec_roundtrip.py``) truncated at a random offset
or with one byte changed, go to one of two linked live nodes, shuffled
with the structure-aware keep-alive mutants of
``tests/wire/test_keepalive_frames.py`` and with frames that use the
reserved type tags 17 (a pickle gadget) and 19-21, bare and as a routed
packet's body; the transport hands every one to the node unread, and the
node alone decodes and rejects them.  The run
is seeded, and the sender waits for each batch to be read before the
next, so nothing is lost to a full receive buffer and every count is
exact.  Afterwards:

* no exception has reached the event loop's exception handler;
* ``wire.decode_error``, summed over both nodes, counts exactly the
  frames ``decode`` rejects, each once — never a frame that decodes; a
  frame one node forwards as bytes, unread, is counted by the node that
  decodes it, or by none if it is forwarded to a peer that a hostile
  link request planted (the frames sent outside the two nodes);
* the attacked node holds no peer that only a hostile link reply named:
  a reply that answers none of its attempts is dropped;
* the attacked node advertises its own URI and nothing else: a ping
  reply teaches a URI only when it answers the last ping the node sent
  its sender, so not even a sender that a hostile link request made a
  peer (the request side of the handshake still accepts strangers) can
  rewrite it;
* the reserved tags fail as unknown tags, bare and as a routed body,
  and the pickle gadget never runs;
* a tunnelled ping still makes the round trip;
* after ``close()`` the process holds the descriptors it held before.

Whatever the nodes send in reply goes out only to loopback IP literals —
corrupted messages name arbitrary URIs, and a test must not send to them.
"""

from __future__ import annotations

import asyncio
import ipaddress
import os
import random
import socket

from repro.brunet.config import BrunetConfig
from repro.brunet.messages import LinkReply, LinkRequest
from repro.brunet.node import BrunetNode
from repro.ipop.ippacket import IcmpEcho
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport
from repro.wire import DecodeError, codec

from tests.wire.test_codec_roundtrip import (
    GADGET_HITS,
    _sample_messages,
    reserved_frames,
)
from tests.wire.test_keepalive_frames import _keepalive_mutants

FRAMES = 2000
BATCH = 32
IPS = ("10.128.0.2", "10.128.0.3")
CONFIG = BrunetConfig(link_resend_interval=0.2, overlord_interval=0.2,
                      ping_interval=2.0, wire_mode="codec")
#: reserved-tag frames, bare and routed to the node under attack
RESERVED_TOP, RESERVED_ROUTED = reserved_frames(addr_for_ip(IPS[0]),
                                                addr_for_ip(IPS[1]))


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _hostile_frames(seed: int = 29) -> list[bytes]:
    rng = random.Random(seed)
    clean = [codec.encode(msg)
             for msg in _sample_messages(seed=seed, per_type=20)]
    frames = []
    for _ in range(FRAMES):
        buf = rng.choice(clean)
        if rng.random() < 0.5:
            frames.append(buf[:rng.randrange(len(buf))])
        else:
            at = rng.randrange(len(buf))
            changed = (buf[at] + rng.randrange(1, 256)) % 256
            frames.append(buf[:at] + bytes([changed]) + buf[at + 1:])
    frames += _keepalive_mutants(seed)
    frames += RESERVED_TOP + RESERVED_ROUTED
    rng.shuffle(frames)
    return frames


def _reply_only_senders(frames: list[bytes]) -> set:
    """Addresses that decodable ``LinkReply`` frames name as their sender
    and no decodable ``LinkRequest`` frame does."""
    named = {LinkReply: set(), LinkRequest: set()}
    for frame in frames:
        try:
            msg = codec.decode(frame)
        except DecodeError:
            continue
        if type(msg) in named:
            named[type(msg)].add(msg.sender_addr)
    return named[LinkReply] - named[LinkRequest]


def _malformed(frame: bytes) -> bool:
    try:
        codec.decode(frame)
    except DecodeError:
        return True
    return False


def _contained(send_frame, nodes: set, escaped: list):
    """``send_frame`` that sends only to loopback IP literals and keeps
    in ``escaped`` every frame for an endpoint that is not in ``nodes``."""
    def send(dst, frame):
        if dst not in nodes:
            escaped.append(frame)
        try:
            loopback = ipaddress.ip_address(dst.ip).is_loopback
        except ValueError:
            loopback = False
        if loopback:
            send_frame(dst, frame)
    return send


def test_malformed_frames_are_counted_and_the_node_keeps_working():
    frames = _hostile_frames()
    unhandled, escaped = [], []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _l, ctx: unhandled.append(ctx))
        fds = _open_fds()
        kernel = RealtimeKernel(seed=0)
        transports = [await UdpTransport.create(kernel, name=f"n{i}")
                      for i in range(2)]
        ends = {t.local_endpoint for t in transports}
        for t in transports:
            t.send_frame = _contained(t.send_frame, ends, escaped)
        nodes = [BrunetNode(kernel, None, addr_for_ip(ip), CONFIG,
                            transport=t, name=t.name)
                 for ip, t in zip(IPS, transports)]
        routers = [IpopRouter(node, ip) for node, ip in zip(nodes, IPS)]
        hostile = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            nodes[0].start([])
            nodes[1].start([transports[0].local_uri])
            for _ in range(400):
                if all(node.in_ring for node in nodes):
                    break
                await asyncio.sleep(0.025)
            assert all(node.in_ring for node in nodes)

            target = transports[1]
            hostile.bind(("127.0.0.1", 0))
            attacker = hostile.getsockname()
            read = 0
            to_node = target._handler

            def counted(data, src, size):
                nonlocal read
                read += src == attacker
                to_node(data, src, size)

            target._handler = counted
            to = (target.local_endpoint.ip, target.local_endpoint.port)
            for start in range(0, len(frames), BATCH):
                for frame in frames[start:start + BATCH]:
                    hostile.sendto(frame, to)
                sent = min(start + BATCH, len(frames))
                async with asyncio.timeout(5.0):
                    while read < sent:
                        await asyncio.sleep(0)
            peers = {conn.peer_addr for conn in nodes[1].table.all()}
            learned = [uri for uri in nodes[1].uris.advertised()
                       if uri != nodes[1].uris.local]

            replies = []
            routers[0].bind("icmp", 0, replies.append)
            routers[0].send_ip(IPS[1], "icmp", 0,
                               IcmpEcho(1, False, kernel.now, 56), 64)
            for _ in range(200):
                if replies:
                    break
                await asyncio.sleep(0.025)
            metrics = kernel.obs.metrics
            errors = sum(metrics.counter("wire.decode_error",
                                         node=node.name).value
                         for node in nodes)
            return read, errors, replies, peers, learned
        finally:
            hostile.close()
            for node in nodes:
                node.stop()
            await asyncio.sleep(0)
            assert _open_fds() == fds

    read, errors, replies, peers, learned = asyncio.run(scenario())
    assert read == len(frames) > FRAMES
    assert unhandled == [], unhandled
    bad = sum(map(_malformed, frames))
    assert 0 < bad < len(frames)
    assert errors == bad - sum(map(_malformed, escaped))
    assert all(map(_malformed, RESERVED_TOP + RESERVED_ROUTED))
    assert GADGET_HITS == []
    planted = _reply_only_senders(frames)
    assert planted and not peers & planted, (len(peers & planted), len(peers))
    assert learned == [], learned
    assert [r.payload.seq for r in replies] == [1]
    assert replies[0].payload.is_reply
