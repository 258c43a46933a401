"""Unit helpers."""

import pytest

from repro.sim.units import GB, KB, MB, minutes, ms, to_KBps


def test_byte_units_nest():
    assert KB(1) == 1024
    assert MB(1) == 1024 * KB(1)
    assert GB(1) == 1024 * MB(1)


def test_time_units():
    assert ms(250) == pytest.approx(0.25)
    assert minutes(2) == 120.0


def test_bandwidth_roundtrip():
    assert to_KBps(KB(85)) == pytest.approx(85.0)
