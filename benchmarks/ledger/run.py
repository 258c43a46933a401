"""Measure one ledger workload in this process and print its metrics.

    python3 benchmarks/ledger/run.py --workload live_ping_direct \\
        --seed 0 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the workload twice — without and with the timing
shims of ``trace.py`` — runs the layer drills, and prints the per-layer
metrics.  Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it (``detail {...}``) carries what the
contract has no key for: outcome digest, window standard errors, absolute
twins, oracle messages.

The exit status is 0 when every output oracle passed, 1 when one missed,
and 2 (with no result line) when the program under test cannot be
imported — as in a directory that holds only the benchmark.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()   # set-up time counts from here: imports are set-up

import argparse        # noqa: E402
import json            # noqa: E402
import sys             # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from benchmarks.ledger.ref import (DES_NOMINAL_S, des_kernel,  # noqa: E402
                                   host_speed_s)

WORKLOADS = ("live_ping_direct", "live_ping_relay", "live_stream_vtcp",
             "sim_join_reference", "sim_join_codec", "sim_ring_3k")

#: per-layer metric -> the span whose mean self time per call it reports
SELF_NS = {
    "wire.encode_self_ns": "wire.encode",
    "wire.decode_lazy_self_ns": "wire.decode_lazy",
    "wire.materialize_self_ns": "wire.materialize",
    "transport.udp_send_self_ns": "transport.udp_send",
    "transport.sim_send_self_ns": "transport.sim_send",
    "brunet.route_self_ns": "brunet.route",
    "brunet.next_hop_ns": "brunet.next_hop",
    "brunet.send_over_self_ns": "brunet.send_over",
    "brunet.rx_dispatch_self_ns": "brunet.rx_dispatch",
    "ipop.send_ip_self_ns": "ipop.send_ip",
    "ipop.ip_handler_self_ns": "ipop.ip_handler",
    "ipop.vtcp_send_self_ns": "ipop.vtcp_send",
    "ipop.vtcp_handle_segment_self_ns": "ipop.vtcp_handle_segment",
    "phys.internet_send_self_ns": "phys.internet_send",
}
#: per-layer metric -> the span whose calls per operation it reports
CALLS_PER_OP = {
    "wire.encode_calls_per_op": "wire.encode",
    "wire.decode_calls_per_op": "wire.decode_lazy",
    "brunet.route_calls_per_op": "brunet.route",
    "brunet.next_hop_calls_per_op": "brunet.next_hop",
}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, tracer=None,
            half: bool = False):
    """One pass of ``workload``.  ``half`` = one of the two halves of a
    traced run: half the seconds and a single set-up for the live
    workloads, the first join trial alone for ``sim_join_*``.  Shims must
    already be installed when a ``tracer`` is given (``sim_ring_3k``
    installs them itself, half way through one pass)."""
    if workload.startswith("live_"):
        from benchmarks.ledger import live
        return live.run_pass(
            workload, seed, seconds / 2 if half else seconds, tracer=tracer,
            setup_repeats=1 if half else live.SETUP_REPEATS)
    from benchmarks.ledger import sims
    if workload == "sim_ring_3k":
        return sims.run_ring(seed, seconds, tracer=tracer)
    return sims.run_join(workload.removeprefix("sim_join_"), seed, seconds,
                         trials=1 if half else sims.JOIN_TRIALS,
                         tracer=tracer)


def measure_traced(workload: str, seed: int, seconds: float):
    """The workload untraced, then again with shims: returns (untraced
    pass with ``.traced`` set, tracer).  The ``sim_join_*`` halves replay
    the same trial on two fresh testbeds, so they differ by the shims
    alone."""
    from benchmarks.ledger.trace import Tracer
    tracer = Tracer()
    if workload == "sim_ring_3k":
        return measure(workload, seed, seconds, tracer), tracer
    plain = measure(workload, seed, seconds, half=True)
    plain.scenario = None
    tracer.install()
    try:
        plain.traced = measure(workload, seed, seconds, tracer, half=True)
    finally:
        tracer.uninstall()
    return plain, tracer


def twin_problems(workload: str, seed: int, seconds: float, result) -> None:
    """``sim_join_codec`` must take the trajectory ``sim_join_reference``
    takes: replay the first trial in reference mode, untimed, and hold the
    codec run's own first trial against it."""
    if workload != "sim_join_codec":
        return
    from benchmarks.ledger import sims
    want = sims.first_trial_digest(seed, seconds, "reference")
    if result.first_trial_digest != want:
        result.problems.append(
            f"codec-mode outcome digest {result.first_trial_digest} differs "
            f"from reference-mode {want} on the first join trial")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(result, import_s: float, ref_before_s: float,
               rss_mb: float) -> dict[str, float]:
    # set-up is one shot, seconds long and pure Python, and this host's
    # speed drifts by 1.4x within the hour: quote it at the nominal host
    # speed, from the reference runs on either side of it
    host = (ref_before_s + result.setup_ref_s) / 2.0
    return {
        "setup_s": (import_s + result.setup_s) * DES_NOMINAL_S / host,
        "cost_x": result.cost_x,
        "tail_x": result.tail_x,
        "peak_rss_mb": rss_mb,
        # an oracle miss fails the whole workload; live operations fail
        # one by one (simulated loss is an outcome, see abs.delivered_frac)
        "ok_frac": 0.0 if result.problems else 1.0,
    }


def per_layer(workload: str, result, tracer, drill_values: dict
              ) -> dict[str, float]:
    """Everything a traced run learned, by per-layer metric name."""
    traced = result.traced
    out: dict[str, float] = {}
    out.update(traced.counters)
    out.update(result.counters)
    out.update(traced.abs)
    out.update(result.abs)
    out.update(drill_values)

    live = workload.startswith("live_")
    ops = max(traced.attempted if live else traced.ops, 1)
    spans = tracer.summary()
    for metric, span in SELF_NS.items():
        row = spans.get(span)
        out[metric] = row["self_ns"] / row["calls"] if row and row["calls"] else 0.0
    for metric, span in CALLS_PER_OP.items():
        row = spans.get(span)
        out[metric] = row["calls"] / ops if row else 0.0
    out["wire.frame_bytes_mean"] = (tracer.frame_bytes
                                    / max(tracer.frames_decoded, 1))
    out["wire.repeat_frame_frac"] = (tracer.frames_repeated
                                     / max(tracer.frames_decoded, 1))
    out["wire.repeat_msg_frac"] = (tracer.msgs_repeated
                                   / max(tracer.msgs_encoded, 1))
    out["brunet.link_resends"] = float(max(
        tracer.sent_types["LinkRequest"]
        - traced.counters.get("brunet.link_attempts", 0.0), 0.0))

    def per_event(p) -> float:
        return p.cost_x / p.counters["sim.events_per_sim_s"]

    if live:
        out["trace.overhead_frac"] = traced.cost_x / result.cost_x - 1.0
    else:
        out["trace.overhead_frac"] = per_event(traced) / per_event(result) - 1.0
    if traced.op_log:
        # closed loop, one echo outstanding: every span between an echo's
        # send and its reply is on its critical path
        covered = tracer.top_level_ns_by_op()
        rtt_ns = sum(rtt for _seq, rtt in traced.op_log) * 1e9
        span_ns = sum(covered.get(seq, 0) for seq, _rtt in traced.op_log)
        out["budget.covered_frac"] = span_ns / rtt_ns
        out["transport.loop_gap_us"] = ((rtt_ns - span_ns)
                                        / len(traced.op_log) / 1e3)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measured time to aim for (sets the work of "
                             "the simulator workloads)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, write every span to PATH")
    args = parser.parse_args(argv)
    # any integer is a seed: fold it into what numpy, the virtual-IP plan
    # and 32-bit wire fields all take
    args.seed %= 1 << 32

    # the yardstick first (stdlib only): one run to build its table, a
    # few to time; none counts as set-up of the program under test
    t0 = perf_counter()
    des_kernel()
    ref_before_s = host_speed_s()
    ref_cost_s = perf_counter() - t0
    try:
        # only what this workload runs: imports are part of its set-up
        # time and of its peak memory
        import repro  # noqa: F401
        from benchmarks.ledger import common
        if args.workload.startswith("live_"):
            from benchmarks.ledger import live  # noqa: F401
        else:
            from benchmarks.ledger import sims  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - _T0 - ref_cost_s
    spec = declared()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        result = measure(args.workload, args.seed, args.seconds)
        rss_mb = common.peak_rss_mb()
        result.scenario = None
        twin_problems(args.workload, args.seed, args.seconds, result)
        metrics = end_to_end(result, import_s, ref_before_s, rss_mb)
        result.abs["abs.setup_wall_s"] = import_s + result.setup_s
        names = [m["name"] for m in spec["end_to_end"]]
        detail["abs"] = result.abs
    else:
        result, tracer = measure_traced(args.workload, args.seed,
                                        args.seconds)
        from benchmarks.ledger import drills
        values, in_ref_events = drills.run(result.traced.scenario)
        metrics = per_layer(args.workload, result, tracer, values)
        names = [m["name"] for m in spec["per_layer"]]
        undeclared = sorted(set(metrics) - set(names))
        if undeclared:
            raise SystemExit(f"metrics not in BENCHMARK.json: {undeclared}")
        # a layer this workload never enters reports 0
        metrics = {name: metrics.get(name, 0.0) for name in names}
        result.problems.extend(result.traced.problems)
        detail["drill_ref_events"] = in_ref_events
        detail["spans_recorded"] = tracer.n
        if args.spans:
            tracer.write(args.spans)
    if set(metrics) != set(names):
        raise SystemExit(f"metric set {sorted(metrics)} is not the "
                         f"declared {sorted(names)}")
    detail.update(digest=result.digest, se_frac=result.se_frac,
                  problems=result.problems)

    correct = not result.problems
    attempted = max(result.attempted, 1)
    for name in names:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for problem in result.problems:
        print(f"ORACLE MISS: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
