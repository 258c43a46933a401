"""Shared fixtures.

Heavier fixtures (small overlays, mini testbeds) are module-scoped where
tests only read from them; tests that mutate topology build their own.
"""

from __future__ import annotations

import asyncio
import collections
import os
import socket
import sys

import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.uri import Uri
from repro.phys import Internet, Site
from repro.sim import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (skipped by default to keep tier-1 fast)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow") or os.environ.get("RUNSLOW"):
        return
    skip = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


@pytest.fixture
def internet(sim) -> Internet:
    return Internet(sim)


class StubSocket:
    """What ``UdpTransport`` needs of its socket, with no network under
    it.  ``sendto`` keeps every datagram as ``(frame, (ip, port))`` in
    ``out``; ``deliver`` queues one for ``recvfrom``.  The queue is a
    local AF_UNIX datagram pair (made on first use), so ``FIONREAD`` on
    ``fileno()`` sees what is queued, as on a UDP socket."""

    def __init__(self):
        self.out: list[tuple[bytes, tuple]] = []
        self._pair = None
        self._sources: collections.deque = collections.deque()

    def sendto(self, frame: bytes, addr: tuple) -> None:
        self.out.append((frame, addr))

    def deliver(self, frame: bytes, addr: tuple) -> None:
        if self._pair is None:
            self._pair = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
            for end in self._pair:
                end.setblocking(False)      # a full queue raises, not hangs
            self._pair[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                     1 << 20)
        self._pair[0].send(frame)
        self._sources.append(addr)

    def recvfrom(self, size: int) -> tuple[bytes, tuple]:
        if self._pair is None:
            raise BlockingIOError
        frame = self._pair[1].recv(size)
        return frame, self._sources.popleft()

    def fileno(self) -> int:
        return -1 if self._pair is None else self._pair[1].fileno()

    def close(self) -> None:
        for end in self._pair or ():
            end.close()


def stub_socket(transport, ip: str, port: int) -> StubSocket:
    """Put a live ``UdpTransport`` on a :class:`StubSocket` bound to
    ``(ip, port)``: its own send/receive code, no OS socket."""
    from repro.phys.endpoints import Endpoint
    stub = transport._sock = StubSocket()
    transport._endpoint = Endpoint(ip, port)
    return stub


def live_stub_nodes(loop, ips, config=None):
    """One started live node per virtual IP, on stub sockets at
    127.0.0.1:4000, :4001, ... and with no links; returns (nodes, routers,
    sockets).  Nothing crosses between them unless the test moves it."""
    from repro.ipop.mapping import addr_for_ip
    from repro.ipop.router import IpopRouter
    from repro.transport.runtime import RealtimeKernel
    from repro.transport.udp import UdpTransport
    kernel = RealtimeKernel(seed=1, loop=loop)
    nodes, routers, sockets = [], [], []
    for i, ip in enumerate(ips):
        transport = UdpTransport(kernel, name=f"n{i}")
        sockets.append(stub_socket(transport, "127.0.0.1", 4000 + i))
        node = BrunetNode(kernel, None, addr_for_ip(ip),
                          config or BrunetConfig(wire_mode="codec"),
                          transport=transport, name=f"n{i}")
        node.start([])
        nodes.append(node)
        routers.append(IpopRouter(node, ip))
    return nodes, routers, sockets


def linked_live_pair(loop, ips: tuple[str, str], config=None):
    """:func:`live_stub_nodes` for two nodes, each holding a near link to
    the other."""
    from repro.brunet.connection import Connection, ConnectionType
    nodes, routers, sockets = live_stub_nodes(loop, ips, config)
    for i, j in ((0, 1), (1, 0)):
        nodes[i].table.add(Connection(
            nodes[j].addr, nodes[j].transport.local_endpoint,
            ConnectionType.STRUCTURED_NEAR, nodes[i].sim.now))
    return nodes, routers, sockets


def calls_by_name(fn, *args, qualified: bool = False,
                  skip: frozenset = frozenset()) -> collections.Counter:
    """Python-level ``call`` events while ``fn(*args)`` runs, by function
    name — ``Class.method`` with ``qualified`` — leaving out the code
    objects in ``skip`` (C functions are not counted)."""
    calls: collections.Counter = collections.Counter()
    key = "co_qualname" if qualified else "co_name"

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code not in skip:
            calls[getattr(frame.f_code, key)] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


#: left out of a live leg's count: the stub's own methods, which stand
#: in for C calls on a real socket, and the loop's timer-heap comparisons,
#: whose number depends on how many timers the loop holds
NOT_COUNTED = frozenset(f.__code__ for f in (
    StubSocket.sendto, StubSocket.recvfrom, StubSocket.fileno,
    asyncio.TimerHandle.__lt__))


def send_calls(fn, *args) -> collections.Counter:
    """What a live node on stub sockets pays for ``fn(*args)``: its
    Python-level calls by qualified name, :data:`NOT_COUNTED` left out."""
    return calls_by_name(fn, *args, qualified=True, skip=NOT_COUNTED)


def wakeup_calls(transport, frame: bytes, addr: tuple) -> collections.Counter:
    """Queue ``frame`` from ``addr`` on ``transport``'s stub socket and
    count the one ``_read_ready`` wake-up that reads it, as the loop
    would enter it (as :func:`send_calls` counts)."""
    transport._sock.deliver(frame, addr)
    return send_calls(transport._read_ready)


def count_calls(fn, *args) -> int:
    """How many Python-level calls ``fn(*args)`` makes.  Deterministic, so
    the call-budget tests pin it."""
    return sum(calls_by_name(fn, *args).values())


def patch_node_method(monkeypatch, node: BrunetNode, name: str,
                      fn) -> None:
    """Make ``node.<name>(...)`` call ``fn(...)``, for ``node`` alone: a
    ``BrunetNode`` has slots and no instance ``__dict__``, so the patch
    goes on the class and hands every other node the method it had."""
    real = getattr(BrunetNode, name)

    def dispatch(self, *args, **kwargs):
        if self is node:
            return fn(*args, **kwargs)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BrunetNode, name, dispatch)


def build_overlay(sim, internet, n_nodes: int, config=None,
                  site=None, stagger: float = 5.0):
    """A public-site overlay of ``n_nodes``; returns (nodes, bootstrap)."""
    site = site or Site(internet, "pub")
    config = config or BrunetConfig()
    rng = sim.rng.stream("tests.overlay")
    nodes = []
    bootstrap = []
    for i in range(n_nodes):
        host = site.add_host(f"ov{i}-{len(internet.hosts_by_ip)}")
        node = BrunetNode(sim, host, random_address(rng), config,
                          name=f"ov{i}")
        node.start(list(bootstrap))
        if not bootstrap:
            bootstrap.append(Uri.udp(host.ip, node.port))
        nodes.append(node)
        sim.run(until=sim.now + stagger)
    sim.run(until=sim.now + 60.0)
    return nodes, bootstrap


@pytest.fixture
def small_overlay(sim, internet):
    """12 public nodes in a settled ring."""
    nodes, bootstrap = build_overlay(sim, internet, 12)
    return nodes


def make_mini_testbed(seed: int = 0, shortcuts: bool = True,
                      settle: float = 120.0):
    """A scaled-down paper testbed (12 PL routers, all 33 VMs)."""
    from repro.core import build_paper_testbed
    from repro.brunet.config import BrunetConfig as BC
    s = Simulator(seed=seed, trace=False)
    tb = build_paper_testbed(
        s, brunet_config=BC(shortcuts_enabled=shortcuts),
        n_planetlab_routers=12, n_planetlab_hosts=4, vm_stagger=2.0)
    tb.run_warmup(settle=settle)
    return s, tb


@pytest.fixture(scope="module")
def mini_testbed():
    """Module-scoped warmed-up mini testbed — read-mostly tests only."""
    return make_mini_testbed()
