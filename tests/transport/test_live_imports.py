"""A live node does not import the simulator, nor numpy.

``repro.phys``, ``repro.sim``, ``repro.ipop``, ``repro.transport`` and
``repro.apps`` resolve their re-exports on first use (``repro._lazy``), so
the modules a daemon needs — real sockets, the wall-clock kernel, the
node, the tap — no longer drag in the NAT model, flows, topology, the
simulated transport or the application miniatures: import time and
memory a live process pays at every start and never uses.  The far
overlord draws from a pure-Python scalar stream, so numpy stays out of a
running node too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SIM_ONLY = [
    "repro.phys.flows", "repro.phys.nat", "repro.phys.network",
    "repro.phys.topology", "repro.phys.host", "repro.phys.latency",
    "repro.phys.packet",
    "repro.sim.units",
    "repro.ipop.transfer", "repro.ipop.bandwidth", "repro.ipop.icmp",
    "repro.transport.sim",
]

PROBE = f"""
import sys
import repro.transport.udp, repro.transport.runtime
import repro.brunet.node, repro.ipop.router
print(*sorted(set({SIM_ONLY!r}) & set(sys.modules)))
"""


def test_live_node_modules_do_not_import_the_simulator():
    out = subprocess.run([sys.executable, "-c", PROBE], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}).stdout
    assert out.split() == []


#: what a daemon neither imports nor loads while its overlay runs
NOT_LIVE = ["numpy", "repro.apps.meme", "repro.apps.fastdnaml",
            "repro.apps.sequences"]

OVERLAY = f"""
import asyncio, sys
import repro.apps.daemon
from repro.brunet.config import BrunetConfig
from repro.brunet.node import BrunetNode
from repro.ipop.mapping import addr_for_ip
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport

def absent():
    return " ".join(sorted(set({NOT_LIVE!r}) & set(sys.modules))) or "-"

async def overlay():
    kernel = RealtimeKernel(seed=0)
    nodes = []
    for i in range(2):
        t = await UdpTransport.create(kernel, "127.0.0.1", 0, name=f"n{{i}}")
        addr = addr_for_ip(f"10.200.2.{{i + 2}}")
        nodes.append(BrunetNode(kernel, None, addr, BrunetConfig(),
                                transport=t, name=t.name))
    try:
        nodes[0].start([])
        nodes[1].start([nodes[0].transport.local_uri])
        for _ in range(400):
            if "brunet.far.n1" in kernel.rng.names():
                return "far"
            await asyncio.sleep(0.05)
        return "no-far"
    finally:
        for node in nodes:
            node.stop()

print(absent())
print(asyncio.run(overlay()))
print(absent())
"""


def test_a_live_overlay_runs_without_numpy():
    """Importing the daemon loads neither numpy nor the application
    miniatures, and a two-node loopback overlay with the default
    ``far_count`` draws its far targets without loading them either."""
    out = subprocess.run([sys.executable, "-c", OVERLAY], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={"PYTHONPATH": str(SRC)}).stdout
    assert out.split() == ["-", "far", "-"]


def test_lazy_packages_still_export_every_name():
    import repro.apps
    import repro.ipop
    import repro.phys
    import repro.sim
    import repro.transport
    for package in (repro.phys, repro.sim, repro.ipop, repro.transport,
                    repro.apps):
        for name in package.__all__:
            value = getattr(package, name)
            assert value.__module__.startswith(package.__name__ + ".")
            assert vars(package)[name] is value      # bound after first use
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
    from repro.phys import Internet, Site  # noqa: F401  (the common spelling)
    from repro.transport import sim as sim_module   # a submodule, not a name
    assert sim_module.SimTransport is repro.transport.SimTransport
