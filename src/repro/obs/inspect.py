"""Inspector CLI for run exports (``python -m repro.obs.inspect``).

Loads the export bundle written by :meth:`repro.obs.hub.Observability.export`
and renders:

* ``--nodes``   — per-node health: connections, routed/delivered traffic,
  linking outcomes, IPOP encap/decap totals;
* ``--census``  — connection census over time, rebuilt from the flight
  recorder's ``conn.add``/``conn.drop`` events;
* ``--routes``  — the slowest traced virtual-IP routes;
* ``--traces``  — the trace index (one line per recorded trace);
* ``--trace ID`` — the full span tree of one trace: a traced packet shows
  its hop-by-hop timeline, a traced CTM its handshake with back-off;
* ``--violations`` — invariant-audit findings recorded by
  ``repro.check`` when the run was executed with auditing on.

With no selector everything above is printed in order.  All output derives
from the export files alone, so inspection is reproducible offline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from typing import Optional

from repro.obs.spans import Span, span_tree


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _load_jsonl(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_manifest(run_dir: str) -> dict:
    """The run's ``manifest.json`` (empty dict when absent)."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def load_metrics(run_dir: str) -> list[dict]:
    """Metric series rows from ``metrics.jsonl``."""
    return _load_jsonl(os.path.join(run_dir, "metrics.jsonl"))


def load_spans(run_dir: str) -> list[Span]:
    """Spans from ``spans.jsonl``, rebuilt as :class:`Span` objects."""
    spans = []
    for row in _load_jsonl(os.path.join(run_dir, "spans.jsonl")):
        span = Span(row["id"], row["trace"], row["parent"], row["name"],
                    row["node"], row["t0"], row.get("attrs") or None)
        span.t1 = row.get("t1")
        spans.append(span)
    return spans


def load_events(run_dir: str) -> list[dict]:
    """Flight-recorder events from ``events.jsonl`` (may be empty)."""
    return _load_jsonl(os.path.join(run_dir, "events.jsonl"))


def load_violations(run_dir: str) -> list[dict]:
    """Invariant-audit findings from ``violations.jsonl`` (may be empty)."""
    return _load_jsonl(os.path.join(run_dir, "violations.jsonl"))


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def _table(headers: list[str], rows: list[list], out) -> None:
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers), file=out)
    print(fmt.format(*("-" * w for w in widths)), file=out)
    for row in str_rows:
        print(fmt.format(*row), file=out)


def _metric_by_node(metrics: list[dict], name: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in metrics:
        node = row.get("labels", {}).get("node")
        if node is not None and row["name"] == name:
            out[node] = row.get("value", row.get("count", 0))
    return out


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

def render_nodes(metrics: list[dict], out=None) -> None:
    """Per-node health table from the metrics export."""
    conns = _metric_by_node(metrics, "brunet.connections")
    sent = _metric_by_node(metrics, "brunet.route.sent")
    fwd = _metric_by_node(metrics, "brunet.route.forwarded")
    dlv = _metric_by_node(metrics, "brunet.route.delivered")
    l_ok = _metric_by_node(metrics, "linking.successes")
    l_fail = _metric_by_node(metrics, "linking.failures")
    encap = _metric_by_node(metrics, "ipop.encap_packets")
    decap = _metric_by_node(metrics, "ipop.decap_packets")
    opaque = _metric_by_node(metrics, "wire.opaque_frames")
    dec_err = _metric_by_node(metrics, "wire.decode_error")
    nodes = sorted(set(conns) | set(sent) | set(dlv) | set(l_ok))
    if not nodes:
        print("no per-node metrics in this export", file=out)
        return
    print(f"node health ({len(nodes)} nodes)", file=out)
    rows = []
    for n in nodes:
        rows.append([n, f"{conns.get(n, 0):g}", f"{sent.get(n, 0):g}",
                     f"{fwd.get(n, 0):g}", f"{dlv.get(n, 0):g}",
                     f"{l_ok.get(n, 0):g}/{l_fail.get(n, 0):g}",
                     f"{encap.get(n, 0):g}/{decap.get(n, 0):g}",
                     f"{opaque.get(n, 0):g}",
                     f"{dec_err.get(n, 0):g}"])
    _table(["node", "conns", "sent", "fwd", "dlvd", "link ok/fail",
            "ip out/in", "opaque", "decode err"], rows, out)


def render_census(events: list[dict], buckets: int = 12,
                  out=None) -> None:
    """Connection census over time from conn.add/conn.drop events."""
    adds = [e["t"] for e in events if e["category"] == "conn.add"]
    drops = [e["t"] for e in events if e["category"] == "conn.drop"]
    if not adds and not drops:
        print("no conn.add/conn.drop events in this export "
              "(flight recorder off?)", file=out)
        return
    t_lo = min(adds + drops)
    t_hi = max(adds + drops)
    width = max((t_hi - t_lo) / buckets, 1e-9)
    add_n = [0] * buckets
    drop_n = [0] * buckets
    for t in adds:
        add_n[min(int((t - t_lo) / width), buckets - 1)] += 1
    for t in drops:
        drop_n[min(int((t - t_lo) / width), buckets - 1)] += 1
    print(f"connection census: {len(adds)} adds, {len(drops)} drops "
          f"over t=[{t_lo:g}, {t_hi:g}]s", file=out)
    live = 0
    rows = []
    for i in range(buckets):
        live += add_n[i] - drop_n[i]
        bar = "#" * min(live, 60)
        rows.append([f"{t_lo + (i + 1) * width:8.1f}", f"+{add_n[i]}",
                     f"-{drop_n[i]}", str(live), bar])
    _table(["t<=", "adds", "drops", "live", ""], rows, out)


def render_routes(spans: list[Span], top: int = 10,
                  out=None) -> None:
    """The slowest traced virtual-IP packets (ip.packet root spans)."""
    roots = [s for s in spans if s.name == "ip.packet" and s.parent is None]
    if not roots:
        print("no traced virtual-IP packets in this export", file=out)
        return
    per_trace: dict[int, int] = defaultdict(int)
    for s in spans:
        per_trace[s.trace_id] += 1
    # undelivered packets (t1 never set) sort last but still show
    roots.sort(key=lambda s: (s.t1 is not None, -s.duration, s.trace_id))
    print(f"slowest routes ({min(top, len(roots))} of {len(roots)} "
          f"traced packets)", file=out)
    rows = []
    for s in roots[:top]:
        attrs = s.attrs or {}
        rows.append([s.trace_id, attrs.get("src", "?"),
                     attrs.get("dst", "?"),
                     attrs.get("hops", "?"),
                     f"{s.duration * 1e3:.2f}" if s.t1 is not None
                     else "lost",
                     per_trace[s.trace_id], s.node])
    _table(["trace", "src", "dst", "hops", "ms", "spans", "origin"],
           rows, out)


def render_traces(manifest: dict, out=None) -> None:
    """The manifest's trace index, one line per trace."""
    traces = manifest.get("traces", [])
    if not traces:
        print("no traces in this export", file=out)
        return
    print(f"{len(traces)} traces", file=out)
    rows = [[t["trace"], t["kind"], t["root"] or "?", t["node"] or "?",
             f"{t['t0']:.3f}" if t["t0"] is not None else "?",
             f"{(t['duration'] or 0) * 1e3:.2f}", t["spans"]]
            for t in traces]
    _table(["trace", "kind", "root", "origin", "t0", "ms", "spans"],
           rows, out)


def render_violations(violations: list[dict], manifest: dict,
                      out=None) -> None:
    """Invariant-audit findings, one row per violation."""
    audit = manifest.get("audit")
    if not violations:
        if audit is not None:
            print(f"invariant audit: clean "
                  f"({audit.get('sweeps', '?')} sweeps)", file=out)
        else:
            print("no invariant audit in this export "
                  "(run with auditing on)", file=out)
        return
    print(f"invariant audit: {len(violations)} violation(s)"
          + (f" over {audit.get('sweeps', '?')} sweeps"
             if audit is not None else ""), file=out)
    rows = [[f"{v.get('t', 0):.3f}", v.get("check", "?"),
             v.get("kind", "?"), v.get("node") or "-",
             v.get("detail", "")] for v in violations]
    _table(["t", "check", "kind", "node", "detail"], rows, out)


def render_trace(spans: list[Span], trace_id: int,
                 out=None) -> bool:
    """One trace as an indented span tree; False when it's unknown."""
    mine = [s for s in spans if s.trace_id == trace_id]
    if not mine:
        print(f"trace {trace_id}: not found in this export", file=out)
        return False
    t_base = min(s.t0 for s in mine)
    print(f"trace {trace_id}: {len(mine)} spans, "
          f"t0={t_base:g}s", file=out)
    for depth, s in span_tree(mine):
        dur = (f" +{(s.t1 - s.t0) * 1e3:.2f}ms"
               if s.t1 is not None and s.t1 != s.t0 else "")
        attrs = s.attrs or {}
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        indent = "  " * depth + ("└ " if depth else "")
        print(f"  {(s.t0 - t_base) * 1e3:9.2f}ms  {indent}{s.name}"
              f"{dur}  [{s.node or '-'}]  {detail}".rstrip(), file=out)
    return True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.inspect",
        description="Inspect a simulation run export "
                    "(metrics/spans/events bundle).")
    parser.add_argument("run_dir", help="directory written by "
                                        "Observability.export")
    parser.add_argument("--nodes", action="store_true",
                        help="per-node health table")
    parser.add_argument("--census", action="store_true",
                        help="connection census over time")
    parser.add_argument("--routes", action="store_true",
                        help="slowest traced virtual-IP routes")
    parser.add_argument("--traces", action="store_true",
                        help="list every recorded trace")
    parser.add_argument("--trace", type=int, metavar="ID",
                        help="render the span tree of one trace")
    parser.add_argument("--violations", action="store_true",
                        help="invariant-audit findings")
    parser.add_argument("--top", type=int, default=10,
                        help="rows for --routes (default 10)")
    parser.add_argument("--buckets", type=int, default=12,
                        help="time buckets for --census (default 12)")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.run_dir):
        print(f"error: {args.run_dir} is not a directory", file=sys.stderr)
        return 2
    manifest = load_manifest(args.run_dir)
    metrics = load_metrics(args.run_dir)
    spans = load_spans(args.run_dir)
    events = load_events(args.run_dir)
    violations = load_violations(args.run_dir)

    selected = any((args.nodes, args.census, args.routes, args.traces,
                    args.violations, args.trace is not None))
    ok = True
    if manifest and (not selected or args.trace is None):
        print(f"run export: seed={manifest.get('seed')} "
              f"sim_time={manifest.get('sim_time'):g}s "
              f"events={manifest.get('events_processed')}")
        print()
    if args.nodes or not selected:
        render_nodes(metrics)
        print()
    if args.census or not selected:
        render_census(events, buckets=args.buckets)
        print()
    if args.routes or not selected:
        render_routes(spans, top=args.top)
        print()
    if args.traces or not selected:
        render_traces(manifest)
        print()
    if args.violations or (not selected and "audit" in manifest):
        render_violations(violations, manifest)
        print()
    if args.trace is not None:
        ok = render_trace(spans, args.trace)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
