"""Unit helpers.

Internal units: seconds, bytes, bytes/second.  These helpers keep
calibration constants readable (``KB(85)`` rather than ``85 * 1024``).
The paper reports bandwidth in KB/s — we follow its convention of
1 KB = 1024 bytes.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def KB(x: float) -> float:
    """Kilobytes (1024 B) to bytes."""
    return x * KIB


def MB(x: float) -> float:
    """Megabytes (1024 KiB) to bytes."""
    return x * MIB


def GB(x: float) -> float:
    """Gigabytes to bytes."""
    return x * GIB


def ms(x: float) -> float:
    """Milliseconds to seconds."""
    return x / 1000.0


def minutes(x: float) -> float:
    """Minutes to seconds."""
    return x * 60.0


def to_KBps(bytes_per_second: float) -> float:
    """Bytes/second to the paper's KB/s."""
    return bytes_per_second / KIB

