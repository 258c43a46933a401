"""Run the whole ledger, or compare two results.

    PYTHONPATH=src python -m benchmarks.ledger [--seed N] [--seconds S]
        [--workload W ...] [--no-trace] [--smoke] [--sets K] [--out PATH]
    python -m benchmarks.ledger compare A.json B.json

A *set* is every workload run once untraced (the end-to-end metrics) and,
unless ``--no-trace``, once more with ``--trace 1`` (the per-layer
metrics) — each run a fresh ``run.py`` subprocess, one at a time, because
the host has two cores and a second busy process would be measured too.
``--sets 2`` runs two sets and compares the second against the first with
the bounds of ``BENCHMARK.json``: the benchmark's own repeatability check.
``compare`` exits 1 when any row is "worse".
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys

from benchmarks.ledger.run import ROOT, WORKLOADS, declared

RUN = ROOT / "benchmarks" / "ledger" / "run.py"
SMOKE_SECONDS = 1.0
SIM_WORKLOADS = tuple(w for w in WORKLOADS if w.startswith("sim_"))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` subprocess; echoes its metric lines, returns its
    parsed result (the contract object plus the ``detail`` line)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    for line in lines[:-2]:
        print(f"  {workload:20s} {line}")
    return result


def run_set(workloads, seed: int, seconds: float, trace: bool) -> dict:
    out: dict = {"workloads": {}}
    for w in workloads:
        plain = run_one(w, seed, seconds, 0)
        entry = {
            "correct": plain["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "se_frac": plain["detail"]["se_frac"],
            "digest": plain["detail"]["digest"],
            "abs": plain["detail"]["abs"],
            "problems": plain["detail"]["problems"],
        }
        if trace:
            traced = run_one(w, seed, seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["problems"] += traced["detail"]["problems"]
        out["workloads"][w] = entry
    out["derived"] = derive(out["workloads"])
    return out


def derive(workloads: dict) -> dict:
    """Numbers and checks that need two workloads."""
    derived: dict = {}
    direct = workloads.get("live_ping_direct")
    relay = workloads.get("live_ping_relay")
    if direct and relay:
        # relay echoes visit 8 nodes, 6 of them in transit; direct echoes
        # visit the same 2 endpoints and nothing else
        derived["per_transit_hop_cost_x"] = (
            relay["end_to_end"]["cost_x"]
            - direct["end_to_end"]["cost_x"]) / 6.0
    ref = workloads.get("sim_join_reference")
    codec = workloads.get("sim_join_codec")
    if ref and codec:
        derived["join_digests_equal"] = ref["digest"] == codec["digest"]
        if not derived["join_digests_equal"]:
            codec["correct"] = False
            codec["problems"].append(
                f"outcome digest {codec['digest']} differs from "
                f"sim_join_reference's {ref['digest']}")
    return derived


def print_set(result: dict) -> None:
    for w, entry in result["workloads"].items():
        verdict = "ok" if entry["correct"] else "FAILED"
        row = "  ".join(f"{k}={v:.4g}" for k, v in entry["end_to_end"].items())
        print(f"{w:20s} {verdict:6s} {row}")
        for problem in entry["problems"]:
            print(f"{'':20s} ORACLE MISS: {problem}")
        layers = entry.get("per_layer")
        if layers:
            print(f"{'':20s} trace.overhead_frac={layers['trace.overhead_frac']:.3f}"
                  f"  budget.covered_frac={layers['budget.covered_frac']:.3f}"
                  f"  transport.loop_gap_us={layers['transport.loop_gap_us']:.1f}")
    for key, value in result["derived"].items():
        print(f"{key} = {value if isinstance(value, bool) else round(value, 4)}")


# ---------------------------------------------------------------------------
# comparing
# ---------------------------------------------------------------------------
def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric: ``new`` against ``base``
    under the metric's bound.  "unresolved" = the two runs' own window
    noise (2 standard errors of the estimate) is wider than the bound, so
    neither "within bound" nor a change can be claimed."""
    rows = []
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old, cur = b["end_to_end"][name], n["end_to_end"][name]
            worse_by = (cur - old) / old if old else math.inf
            if metric["better"] == "higher":
                worse_by = -worse_by
            noise = 2.0 * math.hypot(b["se_frac"].get(name, 0.0),
                                     n["se_frac"].get(name, 0.0))
            if noise > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            rows.append({"workload": w, "metric": name, "base": old,
                         "new": cur, "worse_by": worse_by, "bound": bound,
                         "noise": noise, "verdict": verdict})
    return rows


def exact_mismatches(base: dict, new: dict) -> list[str]:
    """Simulated outcomes and event counts must repeat exactly at a seed."""
    out = []
    for w in SIM_WORKLOADS:
        b, n = base["workloads"].get(w), new["workloads"].get(w)
        if not b or not n:
            continue
        if b["digest"] != n["digest"]:
            out.append(f"{w}: outcome digest {b['digest']} -> {n['digest']}")
        if b["abs"]["abs.ops_total"] != n["abs"]["abs.ops_total"]:
            out.append(f"{w}: trajectory changed, abs.ops_total "
                       f"{b['abs']['abs.ops_total']:.0f} -> "
                       f"{n['abs']['abs.ops_total']:.0f}")
    return out


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':20s} {'metric':15s} {'base':>10s} {'new':>10s} "
          f"{'worse by':>9s} {'bound':>6s} {'noise':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:20s} {r['metric']:15s} {r['base']:10.4g} "
              f"{r['new']:10.4g} {r['worse_by']:+9.1%} {r['bound']:6.0%} "
              f"{r['noise']:6.1%}  {r['verdict']}")


def judge(base: dict, new: dict, spec: dict) -> int:
    rows = compare(base, new, spec)
    print_rows(rows)
    mismatches = exact_mismatches(base, new)
    for line in mismatches:
        print("MISMATCH " + line)
    bad = [r for r in rows if r["verdict"] == "worse"]
    return 1 if bad or mismatches else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = declared()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="ledger compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        with open(args.base) as fh:
            base = json.load(fh)
        with open(args.new) as fh:
            new = json.load(fh)
        return judge(base["sets"][0], new["sets"][-1], spec)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all six")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced (per-layer) runs")
    parser.add_argument("--smoke", action="store_true",
                        help=f"--seconds {SMOKE_SECONDS}: every code path, "
                             "numbers too short to trust")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default="ledger.json",
                        help="where the JSON result goes")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    workloads = args.workload or list(WORKLOADS)

    result = {"meta": {"seed": args.seed, "seconds": seconds,
                       "python": platform.python_version(),
                       "machine": platform.machine()},
              "sets": []}
    status = 0
    for k in range(args.sets):
        print(f"== set {k + 1} of {args.sets}: seed {args.seed}, "
              f"{seconds:g} s per workload ==")
        one = run_set(workloads, args.seed, seconds, not args.no_trace)
        result["sets"].append(one)
        print_set(one)
        if not all(e["correct"] for e in one["workloads"].values()):
            status = 1
        if k:
            print(f"== set {k + 1} against set 1 ==")
            status = max(status, judge(result["sets"][0], one, spec))
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
