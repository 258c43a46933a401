"""``RngRegistry.scalars``: numpy's draws in pure Python.

A live node's only random draws are the far overlord's targets, so it
draws them from a pure-Python PCG64 instead of importing numpy.  Its
numbers must be the numpy ``Generator``'s, bit for bit: a simulated run
replays a live node's far targets only if both draw the same, and every
golden fingerprint already holds the numpy draws.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import RngRegistry

DRAWS = 10_000


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64), name=st.text(max_size=24))
@example(seed=0, name="brunet.far.n1")
@example(seed=1, name="phys.latency")
@example(seed=7, name="")
@example(seed=2**32 - 1, name="brunet.far.s17")
@example(seed=2**32 + 5, name="brunet.far.n1")
@example(seed=123456789012345, name="deploy.addresses")
def test_scalar_draws_are_numpys_bit_for_bit(seed, name):
    scalars = RngRegistry(seed).scalars(name)
    numpy_gen = RngRegistry(seed).stream(name)
    pick = random.Random(seed)
    for _ in range(DRAWS):
        if pick.random() < 0.5:
            assert scalars.random() == numpy_gen.random()
        else:
            low = pick.uniform(-1e3, 1e3)
            high = low + pick.uniform(0.0, 160.0)
            assert scalars.uniform(low, high) == numpy_gen.uniform(low, high)


def test_first_latency_draws_are_pinned():
    """The first three ``phys.latency`` draws at seed 7: numpy's, and so
    the scalar stream's."""
    pinned = [0.9026071085289517, 0.5989375215084772, 0.41516201529229957]
    numpy_gen = RngRegistry(7).stream("phys.latency")
    assert [numpy_gen.random() for _ in range(3)] == pinned
    scalars = RngRegistry(7).scalars("phys.latency")
    assert [scalars.random() for _ in range(3)] == pinned


def test_scalar_streams_are_cached_and_listed():
    reg = RngRegistry(3)
    assert reg.scalars("far") is reg.scalars("far")
    reg.stream("lat")
    assert reg.names() == ["far", "lat"]


def test_a_name_is_one_kind_of_stream():
    reg = RngRegistry(3)
    reg.scalars("far")
    reg.stream("lat")
    with pytest.raises(ValueError, match="'far' is a scalar stream"):
        reg.stream("far")
    with pytest.raises(ValueError, match="'lat' is an array stream"):
        reg.scalars("lat")


def test_a_negative_seed_is_refused_as_by_numpy():
    with pytest.raises(ValueError):
        RngRegistry(-1).stream("x")
    with pytest.raises(ValueError, match="non-negative"):
        RngRegistry(-1).scalars("x")
