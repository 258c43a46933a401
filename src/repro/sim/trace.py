"""Structured event tracing.

Experiments record structured events (``tracer.record(t, "icmp.reply",
{...})``) and post-process them into the series the paper plots.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Optional


class Tracer:
    """Stores trace records grouped by category.

    A record is ``(time, dict)``.  Disable tracing for large sweeps by
    constructing with ``enabled=False``; ``record`` then only counts.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: dict[str, list[tuple[float, dict]]] = defaultdict(list)
        self.counters: Counter = Counter()

    def record(self, t: float, category: str, data: Optional[dict] = None) -> None:
        """Count (and, when enabled, store) one event record."""
        self.counters[category] += 1
        if self.enabled:
            self.records[category].append((t, data or {}))

    def get(self, category: str) -> list[tuple[float, dict]]:
        """Stored (time, data) records of ``category``."""
        return self.records.get(category, [])


def fraction_below(samples: Iterable[float], threshold: float) -> float:
    """Fraction of samples strictly below ``threshold`` (1.0 for empty)."""
    xs = list(samples)
    if not xs:
        return 1.0
    return sum(1 for x in xs if x < threshold) / len(xs)
