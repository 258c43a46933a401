"""Terminal plots and CSV export for experiment series.

The paper's figures are line plots and histograms; these helpers render
them as ASCII in the terminal (so ``wow-experiments`` output is
self-contained) and export the raw series to CSV for external plotting.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Iterable, Sequence

PLOT_WIDTH = 72
PLOT_HEIGHT = 14


def ascii_plot(series: dict[str, tuple[Sequence[float], Sequence[float]]],
               title: str = "", xlabel: str = "", ylabel: str = "",
               height: int = PLOT_HEIGHT, width: int = PLOT_WIDTH) -> str:
    """Multi-series ASCII scatter/line plot.

    ``series`` maps label → (xs, ys); each series gets a marker.  NaNs are
    skipped.  Returns the rendered string.
    """
    markers = "*o+x#@%&"
    pts = []
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        marker = markers[idx % len(markers)]
        for x, y in zip(xs, ys):
            if x is None or y is None:
                continue
            if isinstance(y, float) and math.isnan(y):
                continue
            pts.append((float(x), float(y), marker))
    if not pts:
        return f"{title}\n(no data)"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, marker in pts:
        col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = height - 1 - int((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(f"{markers[i % len(markers)]} {label}"
                        for i, label in enumerate(series))
    lines.append(legend)
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_hi:>9.3g} |"
        elif i == height - 1:
            label = f"{y_lo:>9.3g} |"
        else:
            label = " " * 9 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 10 + "+" + "-" * width)
    lines.append(f"{'':10}{x_lo:<12.4g}{xlabel:^{max(0, width - 24)}}"
                 f"{x_hi:>12.4g}")
    return "\n".join(lines)


def export_csv(path: str, header: Sequence[str],
               rows: Iterable[Sequence]) -> str:
    """Write rows to ``path`` (creating directories); returns the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def export_series_csv(path: str,
                      series: dict[str, tuple[Sequence[float],
                                              Sequence[float]]]) -> str:
    """Export multiple (x, y) series to one long-format CSV."""
    rows = []
    for label, (xs, ys) in series.items():
        for x, y in zip(xs, ys):
            rows.append((label, x, y))
    return export_csv(path, ("series", "x", "y"), rows)
