"""Self-tests of the ledger (not part of the tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.ledger import __main__ as ledger
from benchmarks.ledger import paired
from benchmarks.ledger.run import ROOT, WORKLOADS, declared
from benchmarks.ledger.trace import Tracer, self_times

SPEC = declared()
RUN = ROOT / "benchmarks" / "ledger" / "run.py"


# -- the contract -------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert unit_re.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for name in names:
        assert name_re.match(name), name
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# -- reference kernels and the estimator -----------------------------------------
@pytest.mark.parametrize("module", ["ref", "paired"])
def test_reference_side_imports_nothing_from_repro(module):
    code = (f"import sys, benchmarks.ledger.{module}; "
            "bad = [m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')]; "
            "sys.exit(1 if bad else 0)")
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          timeout=60).returncode == 0


def _noisy_host(n: int, seed: int = 0, bursts: bool = True):
    """Host slowness per slot: slow drift up to 1.6x, plus 2x bursts that
    hit single slots."""
    rng = np.random.default_rng(seed)
    drift = 1.0 + 0.6 * np.sin(np.linspace(0.0, 3.0, 2 * n + 1)) ** 2
    burst = np.where(rng.random(2 * n + 1) < 0.08, 2.0, 1.0)
    return drift * (burst if bursts else 1.0) * rng.normal(1.0, 0.01,
                                                           2 * n + 1)


def test_paired_median_recovers_a_known_ratio_under_bursts_and_drift():
    n, true = 40, 7.0
    slow = _noisy_host(n)
    refs = list(20e-6 * slow[0::2])             # slots 0, 2, 4, ...
    measured = list(true * 20e-6 * slow[1::2])  # slots 1, 3, 5, ...
    ratios = paired.window_ratios(measured, refs)[paired.WARMUP:]
    assert statistics.median(ratios) == pytest.approx(true, rel=0.03)
    # what the pairing buys: the unpaired figure is off by the drift
    unpaired = statistics.median(measured) / refs[0]
    assert abs(unpaired / true - 1.0) > 0.10


@pytest.mark.parametrize("bursts, tolerance", [(False, 0.02), (True, 0.12)])
def test_paired_sum_recovers_cost_per_unit_of_unequal_work(bursts, tolerance):
    """Windows of unequal work cannot be ranked, only summed: drift cancels
    exactly, a burst survives diluted by the windows it did not hit."""
    n, true = 60, 0.35
    work = np.random.default_rng(1).uniform(1.0, 10.0, n)  # simulated s
    slow = _noisy_host(n, seed=1, bursts=bursts)
    refs = list(12e-3 * slow[0::2])
    measured = list(true * 12e-3 * work * slow[1::2])
    ratios = paired.window_ratios(measured, refs)
    assert sum(ratios) / work.sum() == pytest.approx(true, rel=tolerance)
    unpaired = sum(measured) / refs[0] / work.sum()
    assert abs(unpaired / true - 1.0) > 0.20


def test_window_ratios_rejects_unbracketed_windows():
    with pytest.raises(ValueError):
        paired.window_ratios([1.0, 2.0], [1.0, 1.0])


def test_iqr_frac_is_the_contract_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert paired.iqr_frac(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


# -- tracing -------------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    #   0: [0, 100]            top level
    #   1:   [10, 60]          child of 0
    #   2:     [20, 30]        child of 1
    #   3:   [70, 90]          child of 0
    start = np.array([0, 10, 20, 70])
    end = np.array([100, 60, 30, 90])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [30.0, 40.0, 10.0, 20.0]


def test_shims_nest_record_ops_and_taps():
    tracer = Tracer(capacity=64)
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1,
                        tap=lambda result, x: seen.append((result, x)))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op_id = 42
    assert outer(1) == 4
    assert seen == [(2, 1)]
    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name"]]
    assert names == ["outer", "inner", "trace.tap"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert set(cols["op"].tolist()) == {42}
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    # outer's self time excludes both the inner span and the tap
    assert summary["outer"]["self_ns"] == pytest.approx(
        summary["outer"]["dur_ns"] - summary["inner"]["dur_ns"]
        - summary["trace.tap"]["dur_ns"])
    assert tracer.top_level_ns_by_op() == {42: int(summary["outer"]["dur_ns"])}


def test_full_tracer_calls_straight_through():
    tracer = Tracer(capacity=2)
    fn = tracer.wrap("f", lambda: 1)
    assert [fn() for _ in range(5)] == [1] * 5
    assert tracer.n == 2


def test_install_patches_every_lookup_and_uninstall_restores_it():
    import repro.brunet.node as node_mod
    import repro.wire as wire_pkg
    from repro.brunet.node import BrunetNode
    from repro.ipop.router import IpopRouter
    from repro.ipop.vtcp import VtcpSocket
    from repro.phys.network import Internet
    from repro.transport.sim import SimTransport
    from repro.transport.udp import UdpTransport
    from repro.wire import codec

    targets = [(BrunetNode, "route"), (BrunetNode, "send_over"),
               (BrunetNode, "send_routed"), (node_mod, "next_hop"),
               (IpopRouter, "send_ip"), (VtcpSocket, "send"),
               (VtcpSocket, "handle_segment"), (UdpTransport, "send"),
               (UdpTransport, "open"), (SimTransport, "send"),
               (SimTransport, "open"), (Internet, "send")]
    for fn in ("encode", "decode", "decode_lazy", "materialize",
               "peek_header"):
        targets += [(codec, fn), (wire_pkg, fn)]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = Tracer(capacity=16).install()
    try:
        during = [getattr(owner, attr) for owner, attr in targets]
        assert all(d is not b for d, b in zip(during, before))
        assert wire_pkg.materialize is codec.materialize
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is b
               for (owner, attr), b in zip(targets, before))


# -- comparing ---------------------------------------------------------------------------
BOUNDS = {"end_to_end": [
    {"name": "cost_x", "unit": "x", "better": "lower", "bound": 0.10},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01}]}


def _set(cost_x: float, se: float = 0.01, digest: str = "d", ops: float = 5.0):
    e2e = {"setup_s": 1.0, "cost_x": cost_x, "tail_x": 2.0,
           "peak_rss_mb": 50.0, "ok_frac": 1.0}
    return {"workloads": {"sim_join_codec": {
        "end_to_end": e2e, "se_frac": {"cost_x": se, "tail_x": se},
        "digest": digest, "abs": {"abs.ops_total": ops}}}}


@pytest.mark.parametrize("new, se, verdict", [
    (10.5, 0.01, "within bound"), (12.0, 0.01, "worse"),
    (8.0, 0.01, "better"), (10.5, 0.06, "unresolved")])
def test_compare_verdicts(new, se, verdict):
    rows = ledger.compare(_set(10.0, se), _set(new, se), BOUNDS)
    row = next(r for r in rows if r["metric"] == "cost_x")
    assert row["verdict"] == verdict
    assert row["base"] == 10.0 and row["new"] == new


def test_higher_is_better_metrics_flip_the_sign():
    base, new = _set(10.0), _set(10.0)
    new["workloads"]["sim_join_codec"]["end_to_end"]["ok_frac"] = 0.9
    rows = ledger.compare(base, new, BOUNDS)
    row = next(r for r in rows if r["metric"] == "ok_frac")
    assert row["verdict"] == "worse"


def test_changed_trajectory_is_flagged():
    assert ledger.exact_mismatches(_set(10.0), _set(10.0)) == []
    lines = ledger.exact_mismatches(_set(10.0), _set(10.0, digest="e", ops=6))
    assert len(lines) == 2 and "trajectory changed" in lines[1]


# -- end to end: every declared name is printed, nothing else ----------------------------
#: a driver picks seeds freely: this one overflows any 32-bit wire field
#: (``IcmpEcho.seq``) that takes a multiple of the seed unfolded
BIG_SEED = 2**32 + 2_147_483_647


def _run(workload: str, trace: int, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(BIG_SEED),
         "--seconds", str(ledger.SMOKE_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_exactly_the_declared_metrics(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        printed = {ln.split()[0] for ln in lines[:-2]}
        assert printed == set(want)
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        elif workload.startswith("sim_"):
            shares = sum(v["value"] for k, v in result["metrics"].items()
                         if k.startswith("sim.prof."))
            assert shares == pytest.approx(1.0, abs=0.05)
        if trace == 1 and workload == "live_ping_direct":
            assert result["metrics"]["budget.covered_frac"]["value"] >= 0.6


def test_exits_nonzero_without_a_result_where_only_the_benchmark_exists(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("live_ping_direct", 0, cwd=tmp_path,
                script=tmp_path / "benchmarks" / "ledger" / "run.py")
    assert proc.returncode not in (0, 1)
    assert "{" not in proc.stdout
