"""``RingIndex.successor`` costs the same at 100 and at 10 000 entries:
the same Python calls (a per-entry helper grows them) and the same
executed lines (any Python loop over the addresses grows them).
Measured: 2 calls and 7 lines at both sizes."""

import sys

import numpy as np
import pytest

from repro.brunet.address import random_address
from repro.brunet.ring import RingIndex
from tests.conftest import count_calls


def count_lines(fn, *args) -> int:
    """How many Python source lines ``fn(*args)`` executes."""
    lines = [0]

    def trace(frame, event, _arg):
        lines[0] += event == "line"
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return lines[0]


def _costs(size: int, query: str) -> list[tuple[int, int]]:
    rng = np.random.default_rng(7)
    idx = RingIndex()
    for i in range(size):
        idx.add(int(random_address(rng)), i)
    lookup = getattr(idx, query)
    probes = [int(random_address(rng)) for _ in range(4)]
    return [(count_calls(lookup, p), count_lines(lookup, p)) for p in probes]


@pytest.mark.parametrize("query", ["successor"])
def test_lookup_cost_does_not_grow_with_ring_size(query):
    small, large = _costs(100, query), _costs(10_000, query)
    assert len(set(small)) == 1, small
    assert small == large
