"""Observability hub: one handle per simulation for metrics, spans and
the flight recorder.

Every :class:`~repro.sim.engine.Simulator` owns an :class:`Observability`
(``sim.obs``).  Metrics are **on by default** — child-instrument
increments are cheap enough for hot paths — while span tracing and the
flight recorder are opt-in (:meth:`enable_spans` /
:meth:`enable_recorder`), because they allocate per event.

:meth:`export` writes the standard run-export layout consumed by the
inspector CLI (``python -m repro.obs.inspect``)::

    <dir>/metrics.jsonl   one JSON object per metric series
    <dir>/metrics.csv     the same, flattened
    <dir>/metrics.prom    Prometheus text exposition of the same series
    <dir>/spans.jsonl     one JSON object per span (when spans enabled)
    <dir>/events.jsonl    flight-recorder spill (when recorder enabled)
    <dir>/violations.jsonl  invariant-audit findings (when auditing)
    <dir>/manifest.json   seed/time/trace-id index
    <dir>/profile.json    kernel self-profile (when profiling enabled)
    <dir>/profile.folded  flamegraph collapsed stacks (ditto)

All exported values derive from simulation state only, so a fixed seed
produces byte-identical exports — except the two ``profile.*`` files,
which carry wall-clock timings and are therefore *not* listed in the
manifest: with or without profiling, the deterministic half of the
bundle is byte-identical (pinned by ``tests/obs/test_prof.py``).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.metrics import MetricsRegistry, SectorRollup
from repro.obs.prof import KernelProfiler
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanCollector

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: default per-kind span sampling used by :meth:`Observability.enable_spans`
DEFAULT_SAMPLE = {"ip": 1, "ctm": 1}

#: node populations at or above this default to aggregated metrics
#: (``node_series=False``) in :meth:`Observability.scale_to` — per-node
#: label series cost O(n) memory and export lines, which at 10k nodes
#: swamps the bundle without adding signal (see DESIGN.md §16)
NODE_SERIES_MAX = 1000


class Observability:
    """Metrics + spans + flight recorder for one simulator."""

    __slots__ = ("sim", "metrics", "spans", "recorder", "auditor",
                 "profiler", "rollup")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.metrics = MetricsRegistry()
        self.spans = SpanCollector(enabled=False)
        self.recorder: Optional[FlightRecorder] = None
        # invariant auditor (repro.check); registers itself when created
        self.auditor = None
        #: kernel self-profiler (see :meth:`enable_profiler`)
        self.profiler: Optional[KernelProfiler] = None
        #: address-ring sector rollup (see :meth:`enable_rollup`)
        self.rollup: Optional[SectorRollup] = None
        self.metrics.add_collector(self._collect_sim)

    def _collect_sim(self, m: MetricsRegistry) -> None:
        m.gauge("sim.events_processed").set(self.sim.events_processed)
        m.gauge("sim.now").set(self.sim.now)

    # -- switches -------------------------------------------------------
    def enable_spans(self, sample: Optional[dict[str, int]] = None,
                     max_spans: int = 200_000) -> SpanCollector:
        """Turn on causal tracing.  ``sample`` maps trace kinds to
        sampling periods (see :class:`~repro.obs.spans.SpanCollector`);
        the default traces every virtual-IP packet and every CTM."""
        self.spans = SpanCollector(enabled=True,
                                   sample=dict(sample or DEFAULT_SAMPLE),
                                   max_spans=max_spans)
        return self.spans

    def enable_recorder(self, capacity: int = 256,
                        spill_path: Optional[str] = None,
                        max_bytes: Optional[int] = None,
                        compress_rotated: bool = False) -> FlightRecorder:
        """Turn on the per-node flight recorder.  ``max_bytes`` bounds
        each spill segment (rotation; optionally gzip-compressed) so long
        churn runs cannot fill the disk."""
        self.recorder = FlightRecorder(capacity=capacity,
                                       spill_path=spill_path,
                                       max_bytes=max_bytes,
                                       compress_rotated=compress_rotated)
        return self.recorder

    def enable_profiler(self, top_k: int = 32, sample_every: int = 1024,
                        stride: int = 4) -> KernelProfiler:
        """Attach the kernel self-profiler.  Read-only: the simulation's
        event trajectory (and hence the deterministic export bundle) is
        unchanged; only wall-time attribution is collected.  ``stride``
        is the timing sample stride (every event is counted, every
        stride-th wall-timed; 1 = time everything)."""
        self.profiler = KernelProfiler(top_k=top_k,
                                       sample_every=sample_every,
                                       stride=stride)
        self.sim.profiler = self.profiler
        return self.profiler

    def scale_to(self, n_nodes: int, nodes_fn: Optional[Callable] = None,
                 node_series: Optional[bool] = None,
                 sectors: int = 16) -> MetricsRegistry:
        """Right-size the metrics pipeline for an ``n_nodes`` overlay.

        Call once at experiment setup, *before* nodes are built.  With
        ``node_series=None`` (the default) per-node label series stay on
        below :data:`NODE_SERIES_MAX` nodes and collapse into aggregate
        series at or above it; pass ``True``/``False`` to override the
        threshold explicitly.  When ``nodes_fn`` is given and per-node
        series are off, a :class:`~repro.obs.metrics.SectorRollup` over
        that population is registered instead, so large runs keep an
        O(sectors) spatial view of the ring in the export bundle.
        """
        if node_series is None:
            node_series = n_nodes < NODE_SERIES_MAX
        self.metrics.node_series = node_series
        if nodes_fn is not None and not node_series and self.rollup is None:
            self.enable_rollup(nodes_fn, sectors=sectors)
        return self.metrics

    def enable_rollup(self, nodes_fn: Callable, sectors: int = 16,
                      space_bits: int = 160) -> SectorRollup:
        """Register an address-ring sector rollup over the (live) node
        population returned by ``nodes_fn()``; the per-sector gauges are
        refreshed at every export/collector sweep."""
        self.rollup = SectorRollup(self.metrics, nodes_fn,
                                   sectors=sectors, space_bits=space_bits)
        self.metrics.add_collector(self.rollup.collect)
        return self.rollup

    # -- event fan-in ---------------------------------------------------
    def event(self, t: float, node: str, category: str,
              data: Optional[dict] = None) -> None:
        """Feed one node event to the flight recorder (no-op when the
        recorder is off)."""
        if self.recorder is not None:
            self.recorder.record(t, node, category, data)

    # -- export ---------------------------------------------------------
    def export(self, out_dir: str, seed: Optional[int] = None) -> dict:
        """Write the run-export bundle into ``out_dir``; returns the
        manifest dict."""
        os.makedirs(out_dir, exist_ok=True)
        manifest: dict = {
            "seed": seed,
            "sim_time": self.sim.now,
            "events_processed": self.sim.events_processed,
            "files": {},
            "traces": [],
        }
        path = self.metrics.export_jsonl(
            os.path.join(out_dir, "metrics.jsonl"))
        manifest["files"]["metrics"] = os.path.basename(path)
        path = self.metrics.export_csv(
            os.path.join(out_dir, "metrics.csv"))
        manifest["files"]["metrics_csv"] = os.path.basename(path)
        path = self.metrics.export_prom(
            os.path.join(out_dir, "metrics.prom"))
        manifest["files"]["metrics_prom"] = os.path.basename(path)
        if self.spans.enabled:
            path = self.spans.export_jsonl(
                os.path.join(out_dir, "spans.jsonl"))
            manifest["files"]["spans"] = os.path.basename(path)
            manifest["spans_dropped"] = self.spans.dropped
            for tid in self.spans.trace_ids():
                root = self.spans.roots.get(tid)
                root_span = next((s for s in self.spans.spans
                                  if s.id == root), None)
                manifest["traces"].append({
                    "trace": tid,
                    "kind": self.spans.trace_kind.get(tid, "?"),
                    "root": root_span.name if root_span else None,
                    "node": root_span.node if root_span else None,
                    "t0": root_span.t0 if root_span else None,
                    "duration": (root_span.duration if root_span
                                 else None),
                    "spans": len(self.spans.by_trace(tid)),
                })
        if self.recorder is not None:
            self.recorder.close()
            if self.recorder.spill_path:
                manifest["files"]["events"] = os.path.basename(
                    self.recorder.spill_path)
        if self.auditor is not None:
            path = self.auditor.export_jsonl(
                os.path.join(out_dir, "violations.jsonl"))
            manifest["files"]["violations"] = os.path.basename(path)
            manifest["audit"] = self.auditor.summary()
        if self.profiler is not None:
            # wall-clock profile: written beside the bundle but kept OUT
            # of the manifest so the deterministic half stays
            # byte-identical with profiling on or off
            self.profiler.export_json(
                os.path.join(out_dir, "profile.json"))
            self.profiler.export_folded(
                os.path.join(out_dir, "profile.folded"))
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return manifest
