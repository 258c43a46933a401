"""Benchmark configuration.

Each table/figure benchmark runs its (scaled-down) experiment exactly once
under pytest-benchmark timing and asserts the paper's qualitative shape on
the result, so ``pytest benchmarks/ --benchmark-only`` both times the
harness and regenerates every result.  Per-layer costs are measured by
the ledger (``python -m benchmarks.ledger``), not here.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with a single round (experiments are seconds-long)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
