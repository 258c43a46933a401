"""Tier-1 tripwire for the frozen benchmark (``BENCHMARK.json`` +
``benchmarks/ledger/``).

A PR that claims a gain may not touch the ledger, yet the ledger binds to
names inside ``src/`` — it imports them, monkeypatches them for its traced
run, and reads metrics by name (``benchmarks/ledger/README.md``, "Public
names the benchmark imports").  A refactor that breaks one of those
bindings used to pass tier-1 and die in the benchmark stage without a
number.  These tests make it fail here instead.  Seconds, no timing
assertions; the ledger's own 2-minute self-tests stay outside tier-1
(``PYTHONPATH=src python -m pytest benchmarks/ledger -q``).
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"

#: owner (import path) -> attributes the ledger's ``Tracer.install``
#: replaces: the README's "traced:" bullet
TRACED = {
    "repro.brunet.node:BrunetNode": ("route", "send_over", "send_routed"),
    "repro.brunet.node": ("next_hop",),
    "repro.ipop.router:IpopRouter": ("send_ip",),
    "repro.ipop.vtcp:VtcpSocket": ("send", "handle_segment"),
    "repro.transport.udp:UdpTransport": ("send", "open"),
    "repro.transport.sim:SimTransport": ("send", "open"),
    "repro.phys.network:Internet": ("send",),
    "repro.wire.codec": ("encode", "decode", "decode_lazy", "materialize",
                         "peek_header"),
    "repro.wire": ("encode", "decode", "decode_lazy", "materialize",
                   "peek_header"),
}

#: owner -> attributes the workloads and drills import or call: the
#: README's "live:", "sim:" and "drills:" bullets
IMPORTED = {
    "repro.brunet.config:BrunetConfig": (
        "wire_mode", "far_count", "shortcuts_enabled",
        "link_resend_interval", "overlord_interval", "ping_interval",
        "batch_timers"),
    "repro.brunet.node:BrunetNode": (
        "start", "stop", "in_ring", "send_routed", "route", "send_over"),
    "repro.ipop.router:IpopRouter": ("bind", "send_ip"),
    "repro.ipop.vtcp:VtcpStack": ("socket",),
    "repro.ipop.vtcp:VtcpSocket": ("listen", "connect", "send",
                                   "handle_segment"),
    "repro.transport.runtime:RealtimeKernel": ("schedule",),
    "repro.transport.udp:UdpTransport": ("create", "open", "send", "close",
                                         "local_uri"),
    "repro.obs.metrics:MetricsRegistry": ("snapshot", "counter",
                                          "histogram", "export_prom"),
    "repro.sim:Simulator": ("run",),
    "repro.obs.prof:KernelProfiler": ("category_totals",),
    "repro.ipop:Pinger": ("run", "close"),
    "repro.experiments.scaling_10k": ("build_warm_overlay", "ShardedKernel",
                                      "BrunetConfig"),
    "repro.experiments.scaling_10k:ShardedKernel": (
        "shard", "shard_index", "profiler", "rounds", "cross_shard",
        "shards"),
    "repro.brunet.table:ConnectionTable": ("add", "remove"),
    "repro.brunet.ring:RingIndex": ("from_nodes", "successor"),
    "repro.phys.nat:Nat": ("translate_outbound", "translate_inbound"),
    "repro.phys.nat:NatSpec": ("cone",),
    "repro.phys:Site": ("add_host",),
    "repro.check:Auditor": ("sweep",),
}


#: the ring kernel as ``sim_ring_3k`` builds it; the harness reads the
#: attributes above off that instance, not off the class
RING_KERNEL = "repro.experiments.scaling_10k:ShardedKernel"
RING_KERNEL_ARGS = dict(seed=0, shards=8, lookahead=0.002, trace=False)


def _resolve(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


def _public_names_section() -> str:
    text = (LEDGER / "README.md").read_text()
    start = text.index("## Public names the benchmark imports")
    return text[start:text.index("\n## ", start + 1)]


def test_ledger_modules_import():
    for name in ("common", "drills", "live", "paired", "ref", "run", "sims",
                 "trace", "__main__"):
        importlib.import_module(f"benchmarks.ledger.{name}")


def test_every_imported_name_exists_and_is_the_one_the_readme_lists():
    section = _public_names_section()
    for path, attrs in {**IMPORTED, **TRACED}.items():
        owner = _resolve(path)
        if path == RING_KERNEL:
            owner = owner(**RING_KERNEL_ARGS)
        for attr in attrs:
            assert hasattr(owner, attr), f"{path}.{attr} is gone"
            assert attr in section, (
                f"{attr} is not in the ledger README's public-names "
                f"section: this table and that section have drifted")


def test_ring_kernel_is_one_simulator():
    """The harness's ``ShardedKernel(shards=8, lookahead=0.002)`` is a
    plain ``Simulator``: one queue, no windows, no cross-shard mail."""
    from repro.sim import Simulator
    kernel = _resolve(RING_KERNEL)(**RING_KERNEL_ARGS)
    assert isinstance(kernel, Simulator)
    assert kernel.shards == [kernel]
    assert kernel.shard(kernel.shard_index(1 << 159)) is kernel
    assert kernel.rounds == kernel.cross_shard == 0


def test_tracer_install_and_uninstall_round_trip_every_traced_name():
    from benchmarks.ledger.trace import Tracer
    targets = [(_resolve(path), attr)
               for path, attrs in TRACED.items() for attr in attrs]

    def current():
        return [vars(owner)[attr] for owner, attr in targets]

    before = current()
    tracer = Tracer(capacity=16)
    try:
        tracer.install()
        for (owner, attr), original, patched in zip(targets, before,
                                                    current()):
            assert patched is not original, (
                f"install() left {owner.__name__}.{attr} unpatched")
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))


@pytest.mark.parametrize("workload", ["sim_join_reference",
                                      "sim_join_codec", "live_ping_direct"])
def test_contract_command_runs_traced(workload):
    """The contract command, one simulated/wall second, shims installed.
    Seed 0: a traced ``sim_join_*`` run plays only the first join trial
    and fails its own oracle at seeds 1, 18, 19 and 23 on any commit."""
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
