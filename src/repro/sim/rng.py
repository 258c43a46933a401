"""Deterministic named RNG streams.

Every stochastic component asks the registry for a stream by name
(``sim.rng.stream("phys.latency")``).  Stream seeds are derived from the
master seed and the name via ``numpy.random.SeedSequence``, so adding a new
consumer never perturbs existing streams — a property the calibration tests
rely on.

``scalars(name)`` draws the same floats as ``stream(name)`` in pure
Python, so a live node, whose only draws are the far overlord's, never
imports numpy; the first array stream imports it.
"""

from __future__ import annotations

import zlib
from itertools import cycle, islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix``, its constant carried across calls."""
    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def _pcg64_seed(seed: int, name: str) -> tuple[int, int]:
    """``(initstate, initseq)`` of ``PCG64(SeedSequence(entropy=seed,
    spawn_key=(crc32(name),)))``: the hash-mixed 4-word pool, then
    ``generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    words = [seed >> i & _M32 for i in range(0, seed.bit_length() or 1, 32)]
    # the spawn key follows the entropy, zero-padded to the pool size
    words += [0] * (4 - len(words)) + [zlib.crc32(name.encode("utf-8"))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for i, w in enumerate(words):      # mix each pool word, then the rest in
        for dst in range(4):
            if dst != i:
                h = hashmix(pool[i] if i < 4 else w)
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * h) & _M32
                pool[dst] = r ^ r >> 16
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), islice(cycle(pool), 8)))
    s = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]    # 4 uint64
    return s[0] << 64 | s[1], s[2] << 64 | s[3]


class ScalarStream:
    """PCG64 (XSL-RR output) in pure Python: the ``random()`` and
    ``uniform(low, high)`` draws of the numpy ``Generator`` seeded alike."""

    __slots__ = ("state", "inc")

    def __init__(self, initstate: int, initseq: int):
        # PCG's srandom: state 0, step, add initstate, step
        self.inc = (initseq << 1 | 1) & _M128
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _M128

    def random(self) -> float:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()


class RngRegistry:
    """Factory and cache of named streams: ``numpy.random.Generator``s and
    the pure-Python :class:`ScalarStream`s drawing the same numbers."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator | ScalarStream] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np
            # crc32 keeps the derivation stable across Python hash seeds.
            tag = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag,))
            gen = self._streams[name] = np.random.default_rng(seq)
        elif type(gen) is ScalarStream:
            raise ValueError(f"stream {name!r} is a scalar stream")
        return gen

    def scalars(self, name: str) -> ScalarStream:
        """The (cached) scalar stream drawing what ``stream(name)`` would."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = ScalarStream(
                *_pcg64_seed(self.seed, name))
        elif type(gen) is not ScalarStream:
            raise ValueError(f"stream {name!r} is an array stream")
        return gen

    def fork(self, name: str, index: int) -> np.random.Generator:
        """An independent stream for the ``index``-th entity of a family
        (e.g. per-trial streams): ``fork("join.trial", 7)``."""
        return self.stream(f"{name}[{index}]")

    def names(self) -> list[str]:
        """Names of all streams created so far (sorted)."""
        return sorted(self._streams)
