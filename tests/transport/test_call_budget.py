"""Per-packet call budget of the tunnelled-IP datapath.

Live nodes on stub sockets, with ``sys.setprofile`` counting every
Python-level function call: for one zero-hop virtual-IP echo between two
linked nodes, ``send_ip`` → frame out; request frame in → reply frame
out; reply frame in → bound handler.  For one transit visit on a
three-node chain A – B – C, B's handling of a frame from A up to its
send to C.  The counts are deterministic, so they can be pinned.

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
caches, and the transport keeps one ``Endpoint`` per peer.  The object
path makes 41 + 82 + 41 = 164 calls for the same echo.
"""

import asyncio

from repro.ipop.ippacket import IcmpEcho

from tests.conftest import calls_by_name, linked_live_pair, live_stub_nodes
from tests.transport.test_cut_through_chain import _chain_ips, _wire_chain

#: calls per echo leg (out, turn, back) as measured
MEASURED = (18, 36, 18)
#: the pin: measured + 5 %
BUDGET = sum(MEASURED) * 105 // 100
#: calls one transit visit makes, as measured, and its pin (no slack)
TRANSIT_MEASURED = 14
TRANSIT_BUDGET = 14

#: per-packet bookkeeping and header helpers the byte paths do without
AVOIDED = ("inc", "_ps", "_d_str", "_ds", "enabled")

IPS = ("10.128.0.2", "10.128.0.3")


def _avoidable(calls) -> dict:
    return {name: calls[name] for name in AVOIDED if calls[name]}


def _diagnose(calls) -> str:
    return (f"avoidable calls {_avoidable(calls) or 'none'} (counters are "
            f"`.value += n`, the header comes from _VIP_ENC/_VIP_DEC); "
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
            out = calls_by_name(routers[0].send_ip, IPS[1], "icmp", 0,
                                IcmpEcho(seq, False, 0.0, 56), 64)
            (request, to_b), = sock_a.out
            turn = calls_by_name(b._on_datagram, request, ("127.0.0.1", 4000))
            (reply, to_a), = sock_b.out
            back = calls_by_name(a._on_datagram, reply, ("127.0.0.1", 4001))
            legs = (out, turn, back)
            sock_a.out.clear()
            sock_b.out.clear()
        assert (to_b, to_a) == (("127.0.0.1", 4001), ("127.0.0.1", 4000))
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
            visit = calls_by_name(relay._on_datagram, request,
                                  ("127.0.0.1", 4000))
            (forwarded, to_c), = sock_b.out
            sock_a.out.clear()
            sock_b.out.clear()
        assert (to_b, to_c) == (("127.0.0.1", 4001), ("127.0.0.1", 4002))
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
