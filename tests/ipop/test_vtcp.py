"""Virtual TCP: handshake, ordering, retransmission, migration survival,
one ACK per receive batch, and a FIN that holds a sequence number."""

import asyncio
from types import SimpleNamespace

import pytest

from repro.brunet.config import BrunetConfig
from repro.ipop.vtcp import DEFAULT_WINDOW, Segment, VtcpSocket, VtcpStack
from repro.sim import Simulator
from repro.sim.units import MB
from tests.conftest import linked_live_pair, make_mini_testbed


@pytest.fixture()
def bed():
    return make_mini_testbed(seed=17)


def make_pair(sim, tb, a_num=3, b_num=4, port=9100):
    a_vm, b_vm = tb.vm(a_num), tb.vm(b_num)
    got: list = []
    server_stack = VtcpStack(b_vm.router)
    server = server_stack.socket(port, on_message=got.append)
    server.listen()
    client_stack = VtcpStack(a_vm.router)
    client = client_stack.socket(port + 1)
    client.connect(b_vm.virtual_ip, port)
    return a_vm, b_vm, client, server, got


def test_three_way_handshake(bed):
    sim, tb = bed
    _, _, client, server, _ = make_pair(sim, tb)
    sim.run(until=sim.now + 10)
    assert client.state == "ESTABLISHED"
    assert server.state == "ESTABLISHED"
    assert client.established.fired


def test_messages_delivered_in_order(bed):
    sim, tb = bed
    _, _, client, server, got = make_pair(sim, tb, 5, 6, 9200)
    for i in range(25):
        client.send({"n": i})
    sim.run(until=sim.now + 60)
    assert got == [{"n": i} for i in range(25)]
    assert server.messages_delivered == 25


def test_send_before_established_is_buffered(bed):
    sim, tb = bed
    _, _, client, server, got = make_pair(sim, tb, 7, 8, 9300)
    client.send("early")  # still SYN_SENT
    sim.run(until=sim.now + 10)
    assert got == ["early"]


def test_window_limits_in_flight(bed):
    sim, tb = bed
    from repro.ipop.vtcp import DEFAULT_WINDOW
    _, _, client, server, got = make_pair(sim, tb, 9, 10, 9400)
    sim.run(until=sim.now + 5)
    for i in range(50):
        client.send(i)
    assert len(client._in_flight) <= DEFAULT_WINDOW
    sim.run(until=sim.now + 90)
    assert got == list(range(50))


def test_graceful_close(bed):
    sim, tb = bed
    _, _, client, server, got = make_pair(sim, tb, 11, 12, 9500)
    client.send("bye")
    closed = client.close()
    sim.run(until=sim.now + 30)
    assert got == ["bye"]  # close flushes pending data first
    assert closed.fired
    assert client.state == "CLOSED"
    assert server.state == "CLOSED"


def test_connection_survives_server_ipop_restart(bed):
    """The §V-C claim: TCP connection state stays valid across the
    virtual-network outage of an IPOP restart."""
    sim, tb = bed
    a_vm, b_vm, client, server, got = make_pair(sim, tb, 13, 14, 9600)
    client.send("before")
    sim.run(until=sim.now + 10)
    assert got == ["before"]
    b_vm.restart_ipop()  # kills connectivity until rejoin
    client.send("during-outage")
    sim.run(until=sim.now + 240)
    assert "during-outage" in got
    assert client.retransmissions > 0
    assert client.state == "ESTABLISHED"


def test_connection_survives_migration(bed):
    sim, tb = bed
    a_vm, b_vm, client, server, got = make_pair(sim, tb, 15, 16, 9700)
    sim.run(until=sim.now + 5)
    done = b_vm.migrate(tb.deployment.sites["nwu"], transfer_size=MB(20.0))
    client.send("across-the-wan")
    sim.run(until=sim.now + 600)
    assert done.fired
    assert "across-the-wan" in got
    assert client.state == "ESTABLISHED"


def test_duplicate_port_rejected(bed):
    sim, tb = bed
    stack = VtcpStack(tb.vm(17).router)
    stack.socket(9800)
    with pytest.raises(ValueError):
        stack.socket(9800)
    stack.release(9800)
    stack.socket(9800)  # reusable after release


def test_connect_twice_rejected(bed):
    sim, tb = bed
    stack = VtcpStack(tb.vm(18).router)
    sock = stack.socket(9900)
    sock.connect(tb.vm(19).virtual_ip, 1)
    with pytest.raises(RuntimeError):
        sock.connect(tb.vm(19).virtual_ip, 1)


def test_stale_ack_does_not_half_open_a_closing_connection(bed):
    """Regression: a FIN_SENT socket tore down on *any* ACK, and the FIN's
    own ACK carried the same ``ack`` as the last data ACK.  With the first
    FIN lost, a late data ACK closed the client while the server stayed
    ESTABLISHED for good.  The FIN now takes a sequence number, so only
    its own ACK closes the client, which retransmits it until then."""
    sim, tb = bed
    _, b_vm, client, server, got = make_pair(sim, tb, 5, 6, 9250)
    client.send("last")
    sim.run(until=sim.now + 10)
    assert got == ["last"] and not client._in_flight
    transmit, lost = client._transmit, []

    def lose_first_fin(seg):
        if seg.flags == "FIN" and not lost:
            lost.append(seg)
        else:
            transmit(seg)

    client._transmit = lose_first_fin
    client.close()
    assert [seg.flags for seg in lost] == ["FIN"]
    client.handle_segment(b_vm.virtual_ip, 9250,
                          Segment(server.snd_next, server.rcv_next, "ACK"))
    assert client.state == "FIN_SENT"
    sim.run(until=sim.now + 600)
    assert (client.state, server.state) == ("CLOSED", "CLOSED")
    assert client.retransmissions >= 1


# ---------------------------------------------------------------------------
# one ACK per receive batch
# ---------------------------------------------------------------------------
PEER = ("10.128.0.9", 7001)


def _receiver():
    """An ESTABLISHED listener on a stand-in router that keeps every
    segment the socket sends; returns (sim, sock, sent)."""
    sim = Simulator(seed=0)
    sent = []
    router = SimpleNamespace(
        node=SimpleNamespace(sim=sim, name="n0"),
        send_ip=lambda ip, proto, port, payload, size: sent.append(
            payload[1]))
    sock = VtcpSocket(router, 7000)
    sock.listen()
    sock.handle_segment(*PEER, Segment(500, 0, "SYN"))
    sock.handle_segment(*PEER, Segment(501, sock.snd_next, "ACK"))
    assert sock.state == "ESTABLISHED"
    sent.clear()
    return sim, sock, sent


def _data(seq: int) -> Segment:
    return Segment(seq, 0, "DATA", seq, 240)


def _acks(sent) -> list[int]:
    return [seg.ack for seg in sent if seg.flags == "ACK"]


def test_a_window_delivered_in_one_instant_draws_one_ack():
    sim, sock, sent = _receiver()
    got = []
    sock.on_message = got.append
    first = sock.rcv_next
    for seq in range(first, first + DEFAULT_WINDOW):
        sock.handle_segment(*PEER, _data(seq))
    assert got == list(range(first, first + DEFAULT_WINDOW))
    assert sent == []       # delivered at once, acked after the instant
    sim.run(until=sim.now)
    assert _acks(sent) == [first + DEFAULT_WINDOW]
    sim.run(until=sim.now + 10.0)
    assert len(sent) == 1


def test_a_gap_and_a_duplicate_are_acked_at_once():
    sim, sock, sent = _receiver()
    first = sock.rcv_next
    sock.handle_segment(*PEER, _data(first))        # in order: batched
    sock.handle_segment(*PEER, _data(first + 2))    # a gap: ack now
    assert _acks(sent) == [first + 1]
    sock.handle_segment(*PEER, _data(first + 1))    # fills it: ack now
    assert _acks(sent) == [first + 1, first + 3]
    sock.handle_segment(*PEER, _data(first))        # duplicate: ack now
    assert _acks(sent) == [first + 1, first + 3, first + 3]
    assert sock.messages_delivered == 3
    sim.run(until=sim.now + 10.0)   # the batched ACK went with the gap's
    assert len(sent) == 3


def test_a_fin_is_acked_past_its_own_sequence_number():
    sim, sock, sent = _receiver()
    first = sock.rcv_next
    sock.handle_segment(*PEER, _data(first))
    sock.handle_segment(*PEER, Segment(first + 1, 0, "FIN"))
    assert sock.state == "CLOSED"
    assert _acks(sent) == [first + 2]   # the data and the FIN's number
    sim.run(until=sim.now + 10.0)
    assert len(sent) == 1


def test_teardown_cancels_a_pending_ack():
    """A closing socket takes a DATA segment, then the ACK of its FIN, in
    one instant: the batched ACK dies with the socket."""
    sim, sock, sent = _receiver()
    sock.close()
    assert sock.state == "FIN_SENT"
    sock.handle_segment(*PEER, _data(sock.rcv_next))
    sock.handle_segment(*PEER, Segment(0, sock.snd_next, "ACK"))
    assert sock.state == "FIN_SENT"     # a data ACK does not ack the FIN
    sock.handle_segment(*PEER, Segment(0, sock.snd_next + 1, "ACK"))
    assert sock.state == "CLOSED"
    sim.run(until=sim.now + 10.0)
    assert [seg.flags for seg in sent] == ["FIN"]


def test_live_window_read_in_one_wakeup_draws_one_ack_frame():
    """Over stub sockets: the window's 8 DATA frames wait in the
    receiver's socket, one ``_read_ready`` reads all of them, and one
    loop pass later exactly one ACK frame has left; it acks the window."""
    ips = ("10.128.0.2", "10.128.0.3")
    quiet = BrunetConfig(wire_mode="codec", ping_interval=1e9)
    loop = asyncio.new_event_loop()
    try:
        nodes, routers, socks = linked_live_pair(loop, ips, quiet)
        for node in nodes:
            for overlord in node.overlords:
                overlord.stop()
        transports = [node.transport for node in nodes]

        def carry(i: int) -> None:
            """Move everything node ``i`` sent into the other's socket
            and let the other read it in one wake-up."""
            j = 1 - i
            for frame, _ in socks[i].out:
                socks[j].deliver(frame, ("127.0.0.1", 4000 + i))
            socks[i].out.clear()
            transports[j]._read_ready()

        def one_loop_pass() -> None:
            loop.call_soon(loop.stop)
            loop.run_forever()

        got = []
        server = VtcpStack(routers[1]).socket(7000, on_message=got.append)
        server.listen()
        client = VtcpStack(routers[0]).socket(7001)
        client.connect(ips[1], 7000)
        for i in (0, 1, 0):         # SYN, SYN+ACK, ACK
            carry(i)
        assert client.state == server.state == "ESTABLISHED"
        messages = [bytes([n]) * 1400 for n in range(DEFAULT_WINDOW)]
        for message in messages:
            client.send(message, 1400)
        assert len(socks[0].out) == DEFAULT_WINDOW
        carry(0)
        assert got == messages
        assert socks[1].out == []
        one_loop_pass()
        assert len(socks[1].out) == 1
        carry(1)
        assert client.snd_una == client.snd_next and not client._in_flight
        for node in nodes:
            node.stop()
    finally:
        loop.close()
