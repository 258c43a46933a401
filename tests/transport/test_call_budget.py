"""Per-packet call budget of the tunnelled-IP datapath.

One zero-hop virtual-IP echo between two linked live nodes, sockets
stubbed, with ``sys.setprofile`` counting every Python-level function
call the two ends make: ``send_ip`` → frame out; request frame in →
reply frame out; reply frame in → bound handler.  The count is
deterministic, so it can be pinned.

It guards what no timing test can on a noisy host, and what no
behavioural test sees at all: the byte paths (``wire.encode_origin`` at
the origin, ``wire.deliver_view`` at the destination) are *selected* —
by the transport, the trace flag, the payload tag — and a condition that
quietly stops matching leaves every other test green and the gain gone.
The object path makes 41 + 82 + 41 = 164 calls for the same echo.
"""

import asyncio

from repro.ipop.ippacket import IcmpEcho

from tests.conftest import count_calls as _calls, linked_live_pair

#: calls per leg as measured when the byte paths landed
MEASURED = (28, 58, 30)
#: the pin: measured + 5 %
BUDGET = sum(MEASURED) * 105 // 100

IPS = ("10.128.0.2", "10.128.0.3")


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
            out = _calls(routers[0].send_ip, IPS[1], "icmp", 0,
                         IcmpEcho(seq, False, 0.0, 56), 64)
            (request, to_b), = sock_a.out
            turn = _calls(b._on_datagram, request, ("127.0.0.1", 4000))
            (reply, to_a), = sock_b.out
            back = _calls(a._on_datagram, reply, ("127.0.0.1", 4001))
            legs = (out, turn, back)
            sock_a.out.clear()
            sock_b.out.clear()
        assert (to_b, to_a) == (("127.0.0.1", 4001), ("127.0.0.1", 4000))
        assert [r.payload.seq for r in replies] == [0, 1, 2]
        assert all(r.payload.is_reply for r in replies)
        assert sum(legs) <= BUDGET, (
            f"{legs} = {sum(legs)} calls per echo, budget {BUDGET} "
            f"(measured {MEASURED}): is a byte path no longer selected?")
        for node in nodes:
            node.stop()
    finally:
        loop.close()

