"""Per-packet call budget of the tunnelled-IP datapath.

Live nodes on stub sockets, with ``sys.setprofile`` counting every
Python-level function call, each leg entered where a live node enters
it: ``send_ip``, or the ``UdpTransport._read_ready`` wake-up that reads
the frame (``tests/conftest.wakeup_calls``; the stub's own methods stand
in for C calls on a real socket and are not counted).  For one zero-hop
virtual-IP echo between two linked nodes, ``send_ip`` → frame out;
request frame in → reply frame out; reply frame in → bound handler.  For
one transit visit on a three-node chain A – B – C, B's wake-up for a
frame from A up to its send to C.  For one VTCP DATA segment, the send,
its arrival with the cumulative ACK it draws (the wake-up plus the
zero-delay ACK timer), and the ACK's arrival.  The counts are
deterministic, so they can be pinned.

They guard what no timing test can on a noisy host, and what no
behavioural test sees at all: the byte paths (``wire.encode_origin`` at
the origin; on arrival one ``wire.frame_view`` call, then
``patch_forward`` on a relay or ``ip_handler`` at the destination) are
*selected* — by the transport, the trace flag, the payload tag — and a
condition that quietly stops matching leaves every other test green and
the gain gone.
The same holds for what the byte paths must not call: per-packet
counters are ``child.value += n`` on pre-resolved children, the
virtual-IP header comes out of the codec's ``_VIP_ENC`` / ``_VIP_DEC``
caches, the clock is stamped once per callback (``kernel.now`` is an
attribute load inside one), the encapsulation rows dispatch their
payload directly, and each layer is one frame.  The object path makes
41 + 82 + 41 = 164 calls for the same echo.
"""

import asyncio

from repro.brunet.config import BrunetConfig
from repro.ipop.ippacket import IcmpEcho
from repro.ipop.vtcp import VtcpStack

from tests.conftest import (linked_live_pair, live_stub_nodes, send_calls,
                            wakeup_calls)
from tests.transport.test_cut_through_chain import _chain_ips, _wire_chain

#: calls per echo leg (out, turn, back) as measured
MEASURED = (12, 25, 13)
#: the pin: measured + 5 %
BUDGET = sum(MEASURED) * 105 // 100
#: calls one transit visit makes, as measured, and its pin (no slack)
TRANSIT_MEASURED = 11
TRANSIT_BUDGET = 11
#: calls per VTCP segment leg (DATA out, DATA in + its ACK, ACK in) as
#: measured; each includes asyncio's own scheduling of the timers armed
#: and cancelled (the sender's retransmit timer, the receiver's ACK timer)
VTCP_MEASURED = (30, 50, 28)
VTCP_BUDGET = sum(VTCP_MEASURED) * 105 // 100
#: what a VTCP leg may call of ``AVOIDED``: asyncio reads its clock to
#: arm a timer, and the segment's own layout (a flags string, a tuple and
#: a bytes payload) goes through the generic rows
VTCP_ALLOWED = ("BaseEventLoop.time", "_e_any", "_d_any", "_ps", "_d_str",
                "_ds")

#: per-packet work the byte paths do without: metric and header helpers,
#: a clock read (``RealtimeKernel.now`` as a call, asyncio's
#: ``BaseEventLoop.time``), and the wrappers folded into the layer
#: beside them; a name matches a function's name or its qualified name
AVOIDED = ("inc", "_ps", "_d_str", "_ds", "enabled", "now", "time",
           "_WallClock.__get__", "_e_any", "_d_any", "IpopRouter._transmit",
           "inspect_traffic", "UdpTransport._on_datagram")

IPS = ("10.128.0.2", "10.128.0.3")
PEERS = (("127.0.0.1", 4000), ("127.0.0.1", 4001))


def _avoidable(calls, allowed=()) -> dict:
    return {name: n for name, n in calls.items()
            if name not in allowed
            and any(name == a or name.rpartition(".")[2] == a
                    for a in AVOIDED)}


def _diagnose(calls, allowed=()) -> str:
    return (f"avoidable calls {_avoidable(calls, allowed) or 'none'} "
            f"(counters are `.value += n`, the header comes from "
            f"_VIP_ENC/_VIP_DEC, `now` is the callback's stamp); "
            f"most frequent {calls.most_common(6)}")


def test_zero_hop_echo_stays_inside_its_call_budget():
    loop = asyncio.new_event_loop()
    try:
        nodes, routers, (sock_a, sock_b) = linked_live_pair(loop, IPS)
        replies = []

        def on_reply(pkt) -> None:
            replies.append(pkt)

        routers[0].bind("icmp", 0, on_reply)
        a, b = (node.transport for node in nodes)
        legs = ()
        for seq in range(3):            # value caches warm, then measure
            out = send_calls(routers[0].send_ip, IPS[1], "icmp", 0,
                             IcmpEcho(seq, False, 0.0, 56), 64)
            (request, to_b), = sock_a.out
            turn = wakeup_calls(b, request, PEERS[0])
            (reply, to_a), = sock_b.out
            back = wakeup_calls(a, reply, PEERS[1])
            legs = (out, turn, back)
            sock_a.out.clear()
            sock_b.out.clear()
        assert (to_b, to_a) == (PEERS[1], PEERS[0])
        assert [r.payload.seq for r in replies] == [0, 1, 2]
        assert all(r.payload.is_reply for r in replies)
        counts = tuple(sum(leg.values()) for leg in legs)
        assert sum(counts) <= BUDGET, (
            f"{counts} = {sum(counts)} calls per echo, budget {BUDGET} "
            f"(measured {MEASURED}): is a byte path no longer selected? "
            + _diagnose(legs[0] + legs[1] + legs[2]))
        for leg in legs:
            assert not _avoidable(leg), _diagnose(leg)
        for node in nodes:
            node.stop()
    finally:
        loop.close()


def test_transit_visit_stays_inside_its_call_budget():
    loop = asyncio.new_event_loop()
    try:
        ips = _chain_ips()
        nodes, routers, (sock_a, sock_b, _) = live_stub_nodes(loop, ips)
        _wire_chain(nodes, [n.transport.local_endpoint for n in nodes])
        relay = nodes[1].transport
        for seq in range(3):            # value caches warm, then measure
            routers[0].send_ip(ips[2], "icmp", 0,
                               IcmpEcho(seq, False, 0.0, 56), 64)
            (request, to_b), = sock_a.out
            visit = wakeup_calls(relay, request, PEERS[0])
            (forwarded, to_c), = sock_b.out
            sock_a.out.clear()
            sock_b.out.clear()
        assert (to_b, to_c) == (PEERS[1], ("127.0.0.1", 4002))
        assert len(forwarded) == len(request) + 20      # B joined the via list
        assert nodes[1].stats["forwarded"] == 3
        total = sum(visit.values())
        assert total <= TRANSIT_BUDGET, (
            f"{total} calls per transit visit, budget {TRANSIT_BUDGET} "
            f"(measured {TRANSIT_MEASURED}): is the relay's byte path no "
            f"longer selected? " + _diagnose(visit))
        assert not _avoidable(visit), _diagnose(visit)
        for node in nodes:
            node.stop()
    finally:
        loop.close()


def _take_timer(handle) -> tuple:
    """A pending kernel timer's loop callback — the kernel's ``_fire``
    and its arguments — taken off the loop, to be run by the caller as
    the loop would run it."""
    timer = handle._timer
    callback, args = timer._callback, timer._args
    timer.cancel()
    return callback, args


def test_vtcp_segment_stays_inside_its_call_budget():
    """One 1400-byte DATA segment of an established VTCP stream: the
    send (which arms the retransmit timer), its arrival (which arms the
    zero-delay ACK timer) with that timer's ACK, and the ACK's arrival
    (which cancels the retransmit timer) — ``live_stream_vtcp``'s unit
    of work."""
    loop = asyncio.new_event_loop()
    quiet = BrunetConfig(wire_mode="codec", ping_interval=1e9)
    try:
        nodes, routers, socks = linked_live_pair(loop, IPS, quiet)
        for node in nodes:
            for overlord in node.overlords:
                overlord.stop()
        transports = [node.transport for node in nodes]

        def carry(i: int):
            """Node ``i``'s one frame into the other node's wake-up."""
            (frame, _), = socks[i].out
            socks[i].out.clear()
            return wakeup_calls(transports[1 - i], frame, PEERS[i])

        got = []
        server = VtcpStack(routers[1]).socket(7000, on_message=got.append)
        server.listen()
        client = VtcpStack(routers[0]).socket(7001)
        client.connect(IPS[1], 7000)
        for i in (0, 1, 0):             # SYN, SYN+ACK, ACK
            carry(i)
        assert client.state == server.state == "ESTABLISHED"
        for n in range(3):              # value caches warm, then measure
            message = bytes([n]) * 1400
            out = send_calls(client.send, message, 1400)
            arrive = carry(0)
            fire, args = _take_timer(server._ack_timer)
            arrive += send_calls(fire, *args)
            back = carry(1)
            legs = (out, arrive, back)
            assert got[-1] == message and not client._in_flight
        assert len(got) == 3 and socks[0].out == socks[1].out == []
        counts = tuple(sum(leg.values()) for leg in legs)
        assert sum(counts) <= VTCP_BUDGET, (
            f"{counts} = {sum(counts)} calls per VTCP segment, budget "
            f"{VTCP_BUDGET} (measured {VTCP_MEASURED}): "
            + _diagnose(legs[0] + legs[1] + legs[2], VTCP_ALLOWED))
        for leg in legs:
            # the only clock reads are asyncio's, one per timer it arms
            assert leg["BaseEventLoop.time"] == leg["BaseEventLoop.call_later"]
            assert not _avoidable(leg, VTCP_ALLOWED), \
                _diagnose(leg, VTCP_ALLOWED)
        for node in nodes:
            node.stop()
    finally:
        loop.close()
