"""Deterministic counter-based sample generator.

The verification harness must produce byte-identical reports for identical
configurations, and the sampled points must be reproducible from the report
alone (including by re-implementations in other languages).  So instead of a
stateful library RNG we use a splittable counter scheme built on the SplitMix64
finalizer:

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4B209;
              z ^= z >> 27; z *= 0x94D049BB133111EB;
              z ^= z >> 31                       (all mod 2^64)

    stream_seed(seed, label) = mix64(seed XOR fnv1a64(label))
    value(i)   = mix64((stream_seed + (i+1) * 0x9E3779B97F4A7C15) mod 2^64)
    float53(i) = (value(i) >> 11) * 2^-53        in [0, 1)

where fnv1a64 is the standard 64-bit FNV-1a hash of the label's UTF-8 bytes.
Each suite derives its own stream from the run seed and the suite name, so
adding samples to one suite never shifts another suite's draws.

A deviate in [lo, hi) is lo + (hi - lo) * float53(i), and a complex number
in a box (re_lo, re_hi, im_lo, im_hi) takes its real part, then its
imaginary part, from two consecutive values.  The stream is specified by
its block draw, SampleStream.draw: count samples of one complex number per
box, sample-major, the values i in order, from one pass of numpy uint64
arithmetic, which wraps mod 2^64.  next_complex, one complex number from
one box, and mix64 read the same arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array, mod 2^64."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4B209)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    return int(_mix(np.array([z & _MASK], dtype=np.uint64))[0])


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


class SampleStream:
    """Counter-based stream of uniform deviates, addressed by (seed, label)."""

    def __init__(self, seed: int, label: str):
        self.seed = seed & _MASK
        self.label = label
        self._base = np.uint64(mix64(self.seed ^ fnv1a64(label)))
        self._counter = 0

    def _values(self, count: int) -> np.ndarray:
        """The next count values of the stream, as uint64."""
        start = self._counter + 1
        self._counter += count
        return _mix(np.arange(start, start + count, dtype=np.uint64) * _GOLDEN + self._base)

    def _uniforms(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """One deviate in [lo, hi) per entry of lo and hi, in C order."""
        unit = (self._values(lo.size) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + (hi - lo) * unit.reshape(lo.shape)

    def draw(self, count: int, boxes) -> list[list[complex]]:
        """count samples, each one complex number per box (re_lo, re_hi, im_lo, im_hi)."""
        bounds = np.array(boxes, dtype=np.float64).reshape(-1, 2, 2)  # [box, part, lo/hi]
        shape = (count, len(bounds), 2)
        parts = self._uniforms(np.broadcast_to(bounds[..., 0], shape), np.broadcast_to(bounds[..., 1], shape))
        return parts.view(np.complex128)[..., 0].tolist()

    def next_complex(self, re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> complex:
        return self.draw(1, [(re_lo, re_hi, im_lo, im_hi)])[0][0]
