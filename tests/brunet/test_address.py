"""Ring address arithmetic — includes hypothesis property tests."""

import numpy as np
from hypothesis import given, strategies as st

from repro.brunet.address import (
    ADDRESS_SPACE,
    BrunetAddress,
    address_from_ip,
    directed_distance,
    kleinberg_far_target,
    random_address,
    ring_distance,
)

addr_ints = st.integers(min_value=0, max_value=ADDRESS_SPACE - 1)


def test_address_wraps_modulo_space():
    assert BrunetAddress(ADDRESS_SPACE + 5) == 5
    assert BrunetAddress(-1) == ADDRESS_SPACE - 1


def test_offset():
    a = BrunetAddress(10)
    assert a.offset(-20) == ADDRESS_SPACE - 10


def test_directed_distance_basics():
    assert directed_distance(10, 20) == 10
    assert directed_distance(20, 10) == ADDRESS_SPACE - 10
    assert directed_distance(7, 7) == 0


@given(addr_ints, addr_ints)
def test_directed_distances_sum_to_space(a, b):
    if a == b:
        assert directed_distance(a, b) == 0
    else:
        assert directed_distance(a, b) + directed_distance(b, a) \
            == ADDRESS_SPACE


@given(addr_ints, addr_ints)
def test_ring_distance_symmetric_and_bounded(a, b):
    d = ring_distance(a, b)
    assert d == ring_distance(b, a)
    assert 0 <= d <= ADDRESS_SPACE // 2


@given(addr_ints, addr_ints, addr_ints)
def test_ring_distance_triangle_inequality(a, b, c):
    assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c)


@given(addr_ints, addr_ints, st.integers(-(2 ** 80), 2 ** 80))
def test_ring_distance_translation_invariant(a, b, shift):
    assert ring_distance(a, b) == ring_distance(
        (a + shift) % ADDRESS_SPACE, (b + shift) % ADDRESS_SPACE)


def test_address_from_ip_deterministic_and_distinct():
    a1 = address_from_ip("172.16.1.2")
    a2 = address_from_ip("172.16.1.2")
    a3 = address_from_ip("172.16.1.3")
    assert a1 == a2
    assert a1 != a3
    assert 0 <= int(a1) < ADDRESS_SPACE


def test_random_address_uniformish():
    rng = np.random.default_rng(0)
    addrs = [int(random_address(rng)) for _ in range(200)]
    assert len(set(addrs)) == 200
    # crude uniformity: mean near the middle of the space
    mean = sum(addrs) / len(addrs)
    assert 0.35 * ADDRESS_SPACE < mean < 0.65 * ADDRESS_SPACE


def test_kleinberg_targets_span_scales():
    rng = np.random.default_rng(1)
    me = int(address_from_ip("x"))
    distances = [ring_distance(me, int(kleinberg_far_target(me, rng)))
                 for _ in range(400)]
    logs = np.log2(np.array([max(d, 1) for d in distances], dtype=float))
    # log-uniform-ish: wide spread across scales
    assert logs.std() > 20.0
