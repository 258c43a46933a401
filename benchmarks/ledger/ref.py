"""Reference kernels: the host-speed yardsticks of the paired-window protocol.

Every timed number in the ledger is divided by the reference runs that
bracket it, so host noise (a busy neighbour, a frequency change) cancels
in the ratio.  This module imports nothing from ``repro``: a change to the
program can never move its own yardstick.

``UdpEcho``     the "physical network" of the IPOP overhead table — a
                closed-loop echo of one 120-byte datagram between two
                plain asyncio loopback UDP sockets in the caller's loop,
                sent between every two overlay operations.
``des_kernel``  a ~12 ms allocation-heavy toy event loop (``heapq``
                push/pop of tuples holding small ``__slots__`` objects,
                plus lookups in a 65536-entry dict of such objects, so
                its working set misses the core's private caches as the
                simulator's does).  A tight integer spin loop and a
                64-entry table were tried first and track the simulator
                less well (see README.md).
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import statistics
from time import perf_counter

ECHO_BYTES = 120
_PAYLOAD = bytes(range(ECHO_BYTES))


class _Server(asyncio.DatagramProtocol):
    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.transport.sendto(data, addr)


class _Client(asyncio.DatagramProtocol):
    def __init__(self) -> None:
        self.waiter: asyncio.Future | None = None

    def datagram_received(self, data: bytes, addr) -> None:
        waiter, self.waiter = self.waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(perf_counter())


class UdpEcho:
    """Two loopback UDP sockets; :meth:`once` echoes between them."""

    def __init__(self, server, client, protocol: _Client, server_addr):
        self._server = server
        self._client = client
        self._protocol = protocol
        self._server_addr = server_addr

    @classmethod
    async def create(cls) -> "UdpEcho":
        loop = asyncio.get_running_loop()
        server, _ = await loop.create_datagram_endpoint(
            _Server, local_addr=("127.0.0.1", 0))
        client, protocol = await loop.create_datagram_endpoint(
            _Client, local_addr=("127.0.0.1", 0))
        return cls(server, client, protocol,
                   server.get_extra_info("sockname"))

    async def once(self) -> float:
        """One echo; returns its round-trip time in seconds.  The caller
        bounds the wait (a datagram lost on loopback would never return)."""
        waiter = self._protocol.waiter = (
            asyncio.get_running_loop().create_future())
        t0 = perf_counter()
        self._client.sendto(_PAYLOAD, self._server_addr)
        return await waiter - t0

    def close(self) -> None:
        self._client.close()
        self._server.close()


class _Ev:
    __slots__ = ("t", "node", "kind")

    def __init__(self, t: float, node: int, kind: int):
        self.t = t
        self.node = node
        self.kind = kind


#: events one ``des_kernel`` run dispatches (about 12 ms on this host)
DES_EVENTS = 12000
#: the host speed set-up seconds are quoted at: a set-up that took ``w``
#: wall seconds while ``des_kernel`` runs took ``r`` is reported as
#: ``w * DES_NOMINAL_S / r``
DES_NOMINAL_S = 0.012
_TABLE_BITS = 16


@functools.cache
def _table() -> dict[int, _Ev]:
    """Built on first use: only the simulator workloads pay for it."""
    return {i: _Ev(0.0, i, 0) for i in range(1 << _TABLE_BITS)}


def des_kernel(events: int = DES_EVENTS) -> float:
    """Run the toy event loop for ``events`` events; returns wall seconds."""
    table, mask = _table(), (1 << _TABLE_BITS) - 1
    t0 = perf_counter()
    heap: list[tuple[float, int, _Ev]] = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(64):
        push(heap, (i * 1e-3, i, _Ev(i * 1e-3, i, 0)))
    seq = 64
    x = 12345
    for _ in range(events):
        t, _s, ev = pop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        peer = table[x & mask]
        peer.kind += 1
        seq += 1
        push(heap, (t + (x % 1000) * 1e-4, seq, _Ev(t, peer.node, ev.kind + 1)))
    return perf_counter() - t0


def host_speed_s(runs: int = 5) -> float:
    """Median wall seconds of ``runs`` ``des_kernel`` runs: the host speed
    on one side of a set-up.  One run alone spreads by 20 % on a shared
    host (a preemption doubles it), which is more than set-up itself."""
    return statistics.median(des_kernel() for _ in range(runs))
