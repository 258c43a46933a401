"""The paired-window estimator.

A measured phase is cut into short windows with a reference run between
consecutive windows: ``R0 W1 R1 W2 R2 ... Wn Rn``.  A window's cost is its
measurement divided by the mean of the two reference runs that bracket
it, so anything that slows the host for longer than one window slows both
sides of the ratio.  Bursts shorter than a window hit single windows and
are rejected by taking the median over windows (or, where windows hold
unequal work, survive only diluted in the sum).
"""

from __future__ import annotations

import math
import statistics

#: leading windows dropped as warm-up (caches, allocator, branch history)
WARMUP = 2


def window_ratios(measured: list[float], refs: list[float]) -> list[float]:
    """Per-window ``measurement / mean(bracketing references)``.

    ``refs`` holds one more value than ``measured``: ``refs[i]`` ran just
    before window ``i`` and ``refs[i + 1]`` just after it.
    """
    if len(refs) != len(measured) + 1:
        raise ValueError(f"{len(measured)} windows need {len(measured) + 1} "
                         f"reference runs, got {len(refs)}")
    return [m / ((refs[i] + refs[i + 1]) / 2.0)
            for i, m in enumerate(measured)]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (0 <= q <= 1) of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def iqr_frac(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread
    figure the benchmark contract uses across runs."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def median_se_frac(ratios: list[float]) -> float:
    """Standard error of the median of ``ratios`` as a share of it,
    estimated from the window IQR (IQR = 1.349 sigma, SE(median) =
    1.2533 sigma / sqrt(n))."""
    n = len(ratios)
    if n < 4:
        return math.inf
    return iqr_frac(ratios) * (1.2533 / 1.349) / math.sqrt(n)
