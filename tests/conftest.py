"""Shared fixtures.

Heavier fixtures (small overlays, mini testbeds) are module-scoped where
tests only read from them; tests that mutate topology build their own.
"""

from __future__ import annotations

import os
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
    """What ``UdpTransport`` needs of an asyncio datagram transport;
    keeps every datagram as ``(frame, (ip, port))``."""

    def __init__(self):
        self.out: list[tuple[bytes, tuple]] = []

    def is_closing(self) -> bool:
        return False

    def sendto(self, frame: bytes, addr: tuple) -> None:
        self.out.append((frame, addr))

    def close(self) -> None:
        pass


def stub_socket(transport, ip: str, port: int) -> StubSocket:
    """Put a live ``UdpTransport`` on a :class:`StubSocket` bound to
    ``(ip, port)``: its own send/receive code, no OS socket."""
    from repro.phys.endpoints import Endpoint
    socket = transport._transport = StubSocket()
    transport._endpoint = Endpoint(ip, port)
    return socket


def count_calls(fn, *args) -> int:
    """Python-level ``call`` events while ``fn(*args)`` runs (C functions
    are not counted).  Deterministic, so the call-budget tests pin it."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


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
