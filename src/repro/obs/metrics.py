"""Labeled metrics: counters, gauges and log-bucketed histograms.

A :class:`MetricsRegistry` hands out *child* instruments — one per
``(name, labels)`` pair — so hot paths pay only an attribute lookup and an
integer add per event.  Instrument names are dotted, layer-prefixed
namespaces (``brunet.route.hops``, ``linking.attempts``,
``nat.mappings_live``, ``ipop.encap_bytes``, ``fault.injected``); labels
carry the per-node / per-reason dimension so one export line exists per
series.

Cheap-by-construction rules:

* child instruments are resolved **once** (usually in a constructor) and
  cached on the instrumented object — no per-event dict hashing;
* anything that is already counted elsewhere (``node.stats``,
  ``Internet.drops``, live NAT mappings) is pulled in lazily at export
  time through *collector callbacks* and callback gauges — zero hot-path
  cost.

Exports (:meth:`MetricsRegistry.export_jsonl` /
:meth:`~MetricsRegistry.export_csv`) are sorted by ``(name, labels)`` and
contain only simulation-derived values, so a fixed-seed run produces
byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Optional

LabelItems = tuple[tuple[str, str], ...]


class Counter:
    """Monotonically increasing value.  The per-packet sites (node
    send/forward/deliver, UDP send/receive, IPOP encap/decap) skip
    :meth:`inc` and write ``child.value += n``: no call."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (default 1)."""
        self.value += n

    def row(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Point-in-time value that can move both ways."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def row(self) -> dict:
        return {"value": self.value}


class CallbackGauge:
    """Gauge whose value is one or more functions sampled at export time.

    Holds a *list* of callbacks and reports their sum: when the registry
    aggregates node series (``node_series=False``), many per-node
    ``gauge_fn`` registrations collapse onto one child and the rolled-up
    value is the total across nodes."""

    kind = "gauge"
    __slots__ = ("name", "labels", "fns")

    def __init__(self, name: str, labels: LabelItems,
                 fn: Callable[[], float]):
        self.name = name
        self.labels = labels
        self.fns = [fn]

    @property
    def value(self) -> float:
        return sum(fn() for fn in self.fns)

    def row(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Log₂-bucketed histogram: O(1) observe, ~60 buckets over any range.

    An observation ``v > 0`` lands in the bucket whose upper bound is the
    smallest power of two ≥ ``v`` (``frexp`` exponent); non-positive
    values land in the dedicated ``le=0`` bucket.  Bucket math never
    allocates, so histograms are safe on per-packet paths.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "count", "total")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.buckets: dict[int, int] = {}  # exponent -> count; -inf as None
        self.count = 0
        self.total: float = 0.0

    def observe(self, v: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += v
        exp = math.frexp(v)[1] if v > 0 else -1024  # le=0 sentinel
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @staticmethod
    def bound(exp: int) -> float:
        """Upper bound of the bucket with exponent ``exp``."""
        return 0.0 if exp == -1024 else float(2.0 ** exp)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (upper bucket bound), NaN when empty."""
        if not self.count:
            return float("nan")
        need = q * self.count
        seen = 0
        for exp in sorted(self.buckets):
            seen += self.buckets[exp]
            if seen >= need:
                return self.bound(exp)
        return self.bound(max(self.buckets))

    def row(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {f"le={self.bound(e):g}": n
                        for e, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Factory and store for labeled instruments.

    ``node_series`` (default True) keeps one child per ``node=`` label.
    Flip it to False *before nodes are constructed* and every per-node
    series collapses onto a single aggregate child — export and dashboard
    cost drops from O(n) series to O(metric names), the 100k-node mode.
    Per-node ``gauge_fn`` registrations sum (see :class:`CallbackGauge`).
    """

    def __init__(self, node_series: bool = True):
        self.node_series = node_series
        self._instruments: dict[tuple[str, str, LabelItems], Any] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- instrument factories -----------------------------------------
    def _get(self, cls, name: str, labels: dict) -> Any:
        if not self.node_series and "node" in labels:
            labels = {k: v for k, v in labels.items() if k != "node"}
        items: LabelItems = tuple(sorted(labels.items()))
        key = (cls.kind, name, items)
        inst = self._instruments.get(key)
        if inst is None or type(inst) is not cls:
            inst = cls(name, items)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter child for ``(name, labels)`` (created on demand)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge child for ``(name, labels)``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram child for ``(name, labels)``."""
        return self._get(Histogram, name, labels)

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 **labels: str) -> CallbackGauge:
        """Register a gauge computed by ``fn()`` at export time; returns
        the gauge, whose ``fns`` a caller edits to unregister ``fn``.
        Registering the same ``(name, labels)`` again *adds* the callback
        (values sum) — which is how per-node gauges roll up when
        ``node_series`` is off."""
        if not self.node_series and "node" in labels:
            labels = {k: v for k, v in labels.items() if k != "node"}
        items: LabelItems = tuple(sorted(labels.items()))
        key = ("gauge", name, items)
        inst = self._instruments.get(key)
        if isinstance(inst, CallbackGauge):
            inst.fns.append(fn)
        else:
            inst = self._instruments[key] = CallbackGauge(name, items, fn)
        return inst

    def add_collector(self,
                      fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback that fills in metrics right before export
        (for state already counted elsewhere — zero hot-path cost)."""
        self._collectors.append(fn)

    # -- export --------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """All series as sorted, JSON-ready rows."""
        for fn in self._collectors:
            fn(self)
        rows = []
        for (kind, name, items), inst in self._instruments.items():
            rows.append({"name": name, "type": kind,
                         "labels": dict(items), **inst.row()})
        rows.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return rows

    def find(self, name: str, **labels: str) -> Optional[Any]:
        """Look up an existing instrument without creating it."""
        items: LabelItems = tuple(sorted(labels.items()))
        for kind in ("counter", "gauge", "histogram"):
            inst = self._instruments.get((kind, name, items))
            if inst is not None:
                return inst
        return None

    def export_jsonl(self, path: str) -> str:
        """Write one JSON object per series; returns ``path``."""
        with open(path, "w") as fh:
            for row in self.snapshot():
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    def export_prom(self, path: str) -> str:
        """Write Prometheus text exposition (one ``# TYPE`` per family;
        histograms as cumulative ``_bucket``/``_sum``/``_count``).  The
        groundwork for running an IPOP-style daemon behind a scrape
        endpoint; returns ``path``."""
        rows = self.snapshot()
        typed: dict[str, str] = {}
        lines: list[str] = []
        for row in rows:
            name = _prom_name(row["name"])
            if name not in typed:
                typed[name] = row["type"]
                lines.append(f"# TYPE {name} {row['type']}")
            labels = _prom_labels(row["labels"])
            if row["type"] == "histogram":
                seen = 0
                for le, n in row["buckets"].items():
                    bound = le.split("=", 1)[1]
                    seen += n
                    lines.append(f"{name}_bucket"
                                 f"{_prom_labels(row['labels'], le=bound)}"
                                 f" {seen}")
                lines.append(f"{name}_bucket"
                             f"{_prom_labels(row['labels'], le='+Inf')}"
                             f" {row['count']}")
                lines.append(f"{name}_sum{labels} {_prom_num(row['sum'])}")
                lines.append(f"{name}_count{labels} {row['count']}")
            else:
                lines.append(f"{name}{labels} {_prom_num(row['value'])}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        return path

    def export_csv(self, path: str) -> str:
        """Write ``name,labels,type,value,count,sum`` rows."""
        with open(path, "w") as fh:
            fh.write("name,labels,type,value,count,sum\n")
            for row in self.snapshot():
                labels = ";".join(f"{k}={v}" for k, v in
                                  sorted(row["labels"].items()))
                value = row.get("value", "")
                fh.write(f"{row['name']},{labels},{row['type']},"
                         f"{value},{row.get('count', '')},"
                         f"{row.get('sum', '')}\n")
        return path


# ---------------------------------------------------------------------------
# Prometheus exposition helpers
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Mangle a dotted series name into a Prometheus metric name."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_labels(labels: dict, **extra: str) -> str:
    """Render a ``{k="v",...}`` label block ('' when empty)."""
    items = sorted({**labels, **extra}.items())
    if not items:
        return ""
    body = ",".join(f'{_prom_name(k)}="{v}"' for k, v in items)
    return "{" + body + "}"


def _prom_num(v: float) -> str:
    """Integers without a trailing ``.0``; everything else via repr."""
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# streaming aggregation
# ---------------------------------------------------------------------------

class SectorRollup:
    """Address-ring sector aggregates: O(sectors) series regardless of n.

    The 160-bit ring is cut into ``sectors`` equal arcs; every node lands
    in arc ``addr * sectors >> 160``.  :meth:`refresh` walks the node
    population once (cheap direct reads of ``node.table`` /
    ``node.stats`` — read-only) and publishes per-sector gauges
    (``ring.sector.nodes``, ``.conns``, ``.route_sent``, ``.route_fwd``,
    ``.route_dlvd``, ``.route_drops``), so a 100k-node export or
    dashboard tick renders a fixed handful of rows.  Registered as an
    export-time collector by
    :meth:`repro.obs.hub.Observability.enable_rollup`.
    """

    def __init__(self, registry: MetricsRegistry, nodes_fn: Callable,
                 sectors: int = 16, space_bits: int = 160):
        if sectors <= 0:
            raise ValueError("sectors must be positive")
        self.registry = registry
        self.nodes_fn = nodes_fn
        self.sectors = sectors
        self.space_bits = space_bits
        self._width = max(2, len(str(sectors - 1)))
        self.rows: list[dict] = []

    def sector_of(self, addr: int) -> int:
        """Arc index of ring address ``addr``."""
        return (int(addr) * self.sectors) >> self.space_bits

    def label(self, sector: int) -> str:
        return f"{sector:0{self._width}d}"

    def refresh(self) -> list[dict]:
        """Recompute the per-sector aggregate rows (also cached on
        :attr:`rows` for dashboards)."""
        agg = [{"sector": self.label(i), "nodes": 0, "conns": 0,
                "route_sent": 0, "route_fwd": 0, "route_dlvd": 0,
                "route_drops": 0}
               for i in range(self.sectors)]
        for node in self.nodes_fn():
            row = agg[self.sector_of(node.addr)]
            row["nodes"] += 1
            row["conns"] += len(node.table)
            stats = node.stats
            row["route_sent"] += stats.get("sent", 0)
            row["route_fwd"] += stats.get("forwarded", 0)
            row["route_dlvd"] += stats.get("delivered", 0)
            row["route_drops"] += (stats.get("ttl_drop", 0)
                                   + stats.get("undeliverable", 0))
        self.rows = agg
        return agg

    def collect(self, m: MetricsRegistry) -> None:
        """Export-time collector: publish the rollup as gauges."""
        for row in self.refresh():
            sector = row["sector"]
            for field in ("nodes", "conns", "route_sent", "route_fwd",
                          "route_dlvd", "route_drops"):
                m.gauge(f"ring.sector.{field}", sector=sector).set(
                    row[field])
