"""Live-socket smoke: real UDP sockets on localhost.

The full two-node bootstrap + CTM + linking + tunnelled-ping scenario
runs on two in-process daemons; the focused checks cover UdpTransport
framing (every datagram reaches the handler as the received bytes; the
node on the transport decodes it), its socket-error accounting and how
one wake-up drains the socket (over a stub socket, so the queue is exact).
"""

import asyncio

from repro.apps.daemon import WowDaemon
from repro.brunet.config import BrunetConfig
from repro.brunet.node import BrunetNode
from repro.brunet.messages import LinkError, PingReply, PingRequest
from repro.brunet.uri import Uri
from repro.ipop.mapping import addr_for_ip
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import ENDPOINT_MEMO_MAX, READ_BATCH, UdpTransport
from repro.wire import UDP_IP_OVERHEAD, codec, decode, encode

from tests.conftest import live_stub_nodes, stub_socket

PEER = ("127.0.0.1", 5000)


def test_udp_transport_roundtrip_real_sockets():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        a = await UdpTransport.create(kernel, "127.0.0.1", 0, name="a")
        b = await UdpTransport.create(kernel, "127.0.0.1", 0, name="b")
        got = asyncio.get_running_loop().create_future()
        b.open(lambda msg, src, size: got.done() or got.set_result(
            (msg, src, size)))
        a.open(lambda *args: None)
        sent = LinkError(7, addr_for_ip("10.128.0.2"), "busy")
        a.send(b.local_endpoint, sent, size_hint=96)
        msg, src, size = await asyncio.wait_for(got, timeout=5.0)
        a.close()
        b.close()
        return sent, msg, src, size

    sent, msg, src, size = asyncio.run(scenario())
    assert type(msg) is bytes and decode(msg) == sent  # crossed by value
    assert src.ip == "127.0.0.1"
    assert size > 28  # measured frame + UDP/IP headers, not a constant


def test_udp_transport_drops_garbage_with_counted_metric():
    """Garbage reaches the node on the transport, counted as received;
    the node counts it once on ``wire.decode_error`` and dispatches only
    the valid frame sent after it."""
    sent = LinkError(7, addr_for_ip("10.128.0.3"), "busy")

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        b = await UdpTransport.create(kernel, "127.0.0.1", 0, name="b")
        node = BrunetNode(kernel, None, addr_for_ip("10.128.0.2"),
                          BrunetConfig(wire_mode="codec"), transport=b,
                          name="b")
        node.start([])
        delivered = []
        node.linker.handle_error = lambda msg, src: delivered.append(msg)
        loop = asyncio.get_running_loop()
        garbage_tx, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
        ep = b.local_endpoint
        garbage_tx.sendto(b"not a frame", (ep.ip, ep.port))
        garbage_tx.sendto(encode(sent), (ep.ip, ep.port))
        for _ in range(100):
            if b.received == 2:
                break
            await asyncio.sleep(0.01)
        metrics = kernel.obs.metrics
        errs = metrics.counter("wire.decode_error", node="b").value
        rx = metrics.counter("wire.rx_bytes", node="b").value
        garbage_tx.close()
        node.stop()
        return delivered, errs, rx, b.received

    delivered, errs, rx, received = asyncio.run(scenario())
    assert delivered == [sent]
    assert errs == 1
    assert (rx, received) == (len(b"not a frame") + len(encode(sent)), 2)


def test_socket_errors_do_not_pollute_codec_health():
    """Regression: an OS-level socket error (ICMP port-unreachable — a
    churning swarm generates these constantly) was counted into
    ``wire.decode_error``, corrupting the codec-health metric.  It must
    land in its own ``wire.socket_error`` counter, on either side of the
    socket."""

    def refused(*_args):
        raise ConnectionRefusedError(111, "Connection refused")

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        t = UdpTransport(kernel, name="t")
        stub = stub_socket(t, "127.0.0.1", 4000)
        got = []
        t.open(lambda msg, src, size: got.append(msg))
        stub.recvfrom = stub.sendto = refused
        t._read_ready()
        t.send(t.local_endpoint, PingRequest(1, addr_for_ip("10.128.0.2")))
        metrics = kernel.obs.metrics
        decode = metrics.counter("wire.decode_error", node="t").value
        sock = metrics.counter("wire.socket_error", node="t").value
        t.close()
        return decode, sock, got

    decode, sock, got = asyncio.run(scenario())
    assert decode == 0
    assert sock == 2
    assert got == []


def test_a_send_the_socket_refuses_is_dropped_and_counted():
    """A full send buffer (``BlockingIOError``) drops that datagram and
    counts it; nothing is queued in user space and the next send goes."""
    blocked = [BlockingIOError(11, "Resource temporarily unavailable")]

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        t = UdpTransport(kernel, name="t")
        stub = stub_socket(t, "127.0.0.1", 4000)
        sendto = stub.sendto

        def once_blocked(frame, addr):
            if blocked:
                raise blocked.pop()
            sendto(frame, addr)

        stub.sendto = once_blocked
        ping = PingRequest(1, addr_for_ip("10.128.0.2"))
        t.send(t.local_endpoint, ping)
        t.send(t.local_endpoint, ping)
        errors = kernel.obs.metrics.counter("wire.socket_error",
                                            node="t").value
        t.close()
        return stub.out, errors, t.sent

    out, errors, sent = asyncio.run(scenario())
    assert errors == 1
    assert sent == 2
    assert [frame for frame, _ in out] == [encode(
        PingRequest(1, addr_for_ip("10.128.0.2")))]


def test_one_wakeup_reads_at_most_a_batch_and_keeps_order():
    """200 queued datagrams are read over several wake-ups of at most
    ``READ_BATCH`` each, in arrival order; whatever a wake-up leaves is
    read by the next one."""

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        t = UdpTransport(kernel, name="t")
        stub = stub_socket(t, "127.0.0.1", 4000)
        got = []
        t.open(lambda msg, src, size: got.append(decode(msg).token))
        peer = addr_for_ip("10.128.0.2")
        for token in range(1, 201):
            stub.deliver(encode(LinkError(token, peer, "busy")), PEER)
        per_wakeup = []
        while len(got) < 200 and len(per_wakeup) < 10:
            before = len(got)
            t._read_ready()
            per_wakeup.append(len(got) - before)
        t._read_ready()     # an empty queue: nothing, no error
        t.close()
        return got, per_wakeup

    got, per_wakeup = asyncio.run(scenario())
    assert got == list(range(1, 201))
    assert per_wakeup == [min(READ_BATCH, 200 - done)
                          for done in range(0, 200, READ_BATCH)]
    assert len(per_wakeup) > 1


def test_a_handler_that_closes_the_transport_ends_the_wakeup():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        t = UdpTransport(kernel, name="t")
        stub = stub_socket(t, "127.0.0.1", 4000)
        got = []

        def handler(msg, src, size):
            got.append(decode(msg).token)
            if len(got) == 3:
                t.close()

        t.open(handler)
        peer = addr_for_ip("10.128.0.2")
        for token in range(1, 9):
            stub.deliver(encode(LinkError(token, peer, "busy")), PEER)
        t._read_ready()
        return got

    assert asyncio.run(scenario()) == [1, 2, 3]


def test_close_releases_the_socket_and_its_loop_registration():
    """``close()`` closes the socket and stops the loop watching its
    descriptor: the next socket, which gets the same descriptor number,
    is read, not left unwatched behind a stale registration."""
    ping = LinkError(3, addr_for_ip("10.128.0.2"), "busy")

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        first = await UdpTransport.create(kernel, name="a")
        sock = first._sock
        fd = sock.fileno()
        first.close()
        first.close()
        second = await UdpTransport.create(kernel, name="b")
        got = asyncio.get_running_loop().create_future()
        second.open(lambda msg, src, size: got.done() or got.set_result(msg))
        probe = await UdpTransport.create(kernel, name="c")
        probe.send(second.local_endpoint, ping)
        try:
            return (sock.fileno(), second._sock.fileno() == fd,
                    await asyncio.wait_for(got, timeout=5.0))
        finally:
            second.close()
            probe.close()

    closed_fd, reused, msg = asyncio.run(scenario())
    assert closed_fd == -1
    assert reused
    assert decode(msg) == ping


def test_keepalive_frames_reach_the_handler_as_bytes(monkeypatch):
    """The transport hands its node every datagram as the received bytes,
    counted as received, and reads none of it: keep-alives, a control
    frame and a truncated one alike (``decode`` fails the test if the
    transport calls it)."""
    peer = addr_for_ip("10.128.0.2")
    error = encode(LinkError(3, peer, "busy"))
    frames = [encode(PingRequest(1, peer)),
              encode(PingReply(2, peer, Uri.udp("150.1.0.9", 6000), True)),
              error, error[:-2]]

    def no_decode(buf):
        raise AssertionError("the transport decoded a datagram")

    monkeypatch.setattr(codec, "decode", no_decode)

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        t = UdpTransport(kernel, name="t")
        stub = stub_socket(t, "127.0.0.1", 4000)
        got = []
        t.open(lambda msg, src, size: got.append((msg, size)))
        for frame in frames:
            stub.deliver(frame, PEER)
        t._read_ready()
        rx = kernel.obs.metrics.counter("wire.rx_bytes", node="t").value
        t.close()
        return got, rx, t.received

    got, rx, received = asyncio.run(scenario())
    assert [msg for msg, _ in got] == frames
    assert all(type(msg) is bytes for msg, _ in got)
    assert [size for _, size in got] == [len(f) + UDP_IP_OVERHEAD
                                         for f in frames]
    assert (rx, received) == (sum(map(len, frames)), len(frames))


def test_one_endpoint_per_peer_and_a_bounded_memo():
    """The transport hands its node one ``Endpoint`` per source address,
    kept in a memo that peers cannot grow past its cap (they choose the
    source ports), and every reply still goes back to the port its
    request came from."""
    loop = asyncio.new_event_loop()
    try:
        (node,), _, (stub,) = live_stub_nodes(loop, ["10.128.0.2"])
        t = node.transport
        seen = []
        to_node = t._handler

        def watched(msg, src, size):
            seen.append(src)
            to_node(msg, src, size)

        t._handler = watched
        peer = addr_for_ip("10.128.0.3")
        ports = range(10_000, 15_000)
        for token, port in enumerate(ports, 1):
            t._on_datagram(encode(PingRequest(token, peer)),
                           ("127.0.0.1", port))
            assert len(t._peers) <= ENDPOINT_MEMO_MAX
        assert [addr for _, addr in stub.out] == [("127.0.0.1", port)
                                                   for port in ports]
        replies = [decode(frame) for frame, _ in stub.out]
        assert all(type(r) is PingReply for r in replies)
        assert [r.token for r in replies] == list(range(1, len(ports) + 1))
        assert [r.observed_uri.endpoint.port for r in replies] == list(ports)
        assert len(codec._URI_ENC) <= codec._CACHE_MAX
        t._on_datagram(encode(PingRequest(0, peer)), ("127.0.0.1", 14_999))
        assert seen[-1] is seen[-2]             # the same peer, one Endpoint
        node.stop()
    finally:
        loop.close()


def test_realtime_kernel_schedule_and_cancel():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        fired = []
        kernel.schedule(0.01, fired.append, "a")
        handle = kernel.schedule(0.01, fired.append, "b")
        handle.cancel()
        await asyncio.sleep(0.1)
        assert kernel.now > 0.0
        return fired, kernel.events_processed

    fired, processed = asyncio.run(scenario())
    assert fired == ["a"]
    assert processed == 1


def test_live_two_node_overlay_and_tunnelled_ping():
    """The CI smoke scenario, in process: two daemons (unmodified
    BrunetNode/IpopRouter over real UDP sockets) bootstrap, complete the
    CTM handshake and linking, and tunnel a virtual-IP ping."""
    config = BrunetConfig(link_resend_interval=0.5, overlord_interval=0.5,
                          ping_interval=2.0, wire_mode="codec")

    async def scenario():
        seed = WowDaemon("10.128.0.2", config=config, name="n0")
        await seed.start()
        joiner = WowDaemon("10.128.0.3", config=config, name="n1",
                           seed_uris=[seed.transport.local_uri])
        await joiner.start()
        try:
            for _ in range(600):
                if seed.node.in_ring and joiner.node.in_ring:
                    break
                await asyncio.sleep(0.05)
            assert seed.node.in_ring and joiner.node.in_ring
            there = await joiner.ping(seed.vip, timeout=10.0)
            back = await seed.ping(joiner.vip, timeout=10.0)
            errors = sum(d.kernel.obs.metrics.counter(
                "wire.decode_error", node=d.name).value
                for d in (seed, joiner))
            return there, back, errors
        finally:
            await joiner.shutdown()
            await seed.shutdown()

    there, back, errors = asyncio.run(scenario())
    assert there is not None and back is not None
    assert errors == 0
