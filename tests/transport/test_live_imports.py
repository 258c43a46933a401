"""A live node does not import the simulator.

``repro.phys``, ``repro.sim``, ``repro.ipop`` and ``repro.transport``
resolve their re-exports on first use (``repro._lazy``), so the modules a
daemon needs — real sockets, the wall-clock kernel, the node, the tap —
no longer drag in the NAT model, flows, topology, the sharded kernel or
the simulated transport: import time and memory a live process pays at
every start and never uses.
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
    "repro.sim.shards", "repro.sim.units",
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


def test_lazy_packages_still_export_every_name():
    import repro.ipop
    import repro.phys
    import repro.sim
    import repro.transport
    for package in (repro.phys, repro.sim, repro.ipop, repro.transport):
        for name in package.__all__:
            value = getattr(package, name)
            assert value.__module__.startswith(package.__name__ + ".")
            assert vars(package)[name] is value      # bound after first use
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
    from repro.phys import Internet, Site  # noqa: F401  (the common spelling)
    from repro.transport import sim as sim_module   # a submodule, not a name
    assert sim_module.SimTransport is repro.transport.SimTransport
