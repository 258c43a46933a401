"""VTCP edge cases: strays, SYN give-up, duplicate SYN, listener close."""

import pytest

from repro.ipop.vtcp import MAX_SYN_RETRIES, RTO_MAX, Segment, VtcpStack
from tests.conftest import make_mini_testbed


@pytest.fixture(scope="module")
def bed():
    return make_mini_testbed(seed=71)


def test_stray_segments_from_wrong_peer_ignored(bed):
    sim, tb = bed
    got = []
    server = VtcpStack(tb.vm(3).router).socket(9000, on_message=got.append)
    server.listen()
    client = VtcpStack(tb.vm(4).router).socket(9001)
    client.connect(tb.vm(3).virtual_ip, 9000)
    sim.run(until=sim.now + 10)
    assert server.state == "ESTABLISHED"
    # a third party injects a DATA segment claiming an in-window seq
    intruder = VtcpStack(tb.vm(5).router).socket(9002)
    intruder.peer_ip = tb.vm(3).virtual_ip
    intruder.peer_port = 9000
    intruder._transmit(Segment(server.rcv_next, 0, "DATA", "evil", 100))
    sim.run(until=sim.now + 5)
    assert "evil" not in got


def test_connect_to_dead_host_gives_up(bed):
    sim, tb = bed
    client = VtcpStack(tb.vm(6).router).socket(9100)
    closed = client.closed
    client.connect("172.16.250.250", 1)  # nobody there
    # SYN retries back off exponentially up to RTO_MAX; give it headroom
    sim.run(until=sim.now + 4000)
    if not closed.fired:
        sim.run(until=sim.now + 60 * MAX_SYN_RETRIES)
    assert closed.fired
    assert client.state == "CLOSED"
    assert not client.established.fired


def test_duplicate_syn_reacked(bed):
    sim, tb = bed
    server = VtcpStack(tb.vm(7).router).socket(9200,
                                               on_message=lambda m: None)
    server.listen()
    client = VtcpStack(tb.vm(8).router).socket(9201)
    client.connect(tb.vm(7).virtual_ip, 9200)
    sim.run(until=sim.now + 10)
    # replay the SYN (as a retransmission would)
    client._transmit(Segment(client.snd_una - 1, 0, "SYN"))
    sim.run(until=sim.now + 5)
    assert server.state == "ESTABLISHED"
    assert client.state == "ESTABLISHED"


def test_listen_close_without_connection(bed):
    sim, tb = bed
    stack = VtcpStack(tb.vm(9).router)
    sock = stack.socket(9300)
    sock.listen()
    closed = sock.close()
    assert closed.fired
    assert sock.state == "CLOSED"


def test_messages_survive_loss_via_retransmission(bed):
    """Force datagram loss high for a while: cumulative ACKs recover."""
    sim, tb = bed
    got = []
    server = VtcpStack(tb.vm(10).router).socket(9400, on_message=got.append)
    server.listen()
    client = VtcpStack(tb.vm(11).router).socket(9401)
    client.connect(tb.vm(10).virtual_ip, 9400)
    sim.run(until=sim.now + 10)
    net = tb.deployment.internet
    old_loss = net.latency.default_loss
    net.latency.default_loss = 0.3
    for i in range(10):
        client.send(i)
    sim.run(until=sim.now + 240)
    net.latency.default_loss = old_loss
    # the client may have backed off to RTO_MAX while the loss lasted, so
    # its next retransmission can come a whole RTO_MAX after the loss
    # lifts; the ACK it draws resets the RTO, and a margin covers the
    # go-back retransmissions that follow at 1, 2, 4 … s
    sim.run(until=sim.now + RTO_MAX + 60)
    assert got == list(range(10))
    assert client.retransmissions > 0
