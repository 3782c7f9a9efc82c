"""Portable deterministic pseudo-randomness for the search heuristics.

The generator is SplitMix64 (Steele, Lea, Flood 2014) with the standard
constants: state advances by the golden-gamma increment 0x9E3779B97F4A7C15
and outputs pass through the 30/27/31-shift, 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB finalizer.  Pure 64-bit integer arithmetic, so streams
are identical on every platform and Python version.

Restart streams are derived as ``mix64(master + (index + 1) * gamma)``;
bounded draws use rejection sampling, so shuffles are exactly uniform.
``shuffle`` draws exactly as ``below`` does: same outputs, same
rejections, same final state.  On a long list it computes the draws
lane-parallel: the next ``_LANES`` states are packed into one Python int,
one 128-bit lane each, and the finalizer runs once on the packed int.  A
lane's 64-bit value times a 64-bit constant fits in its lane, so every
lane is exact.  The lanes are read back through native 64-bit words, so
byte order does not matter.  A block in which any draw comes within the
block's largest bound of ``2**64`` could hold a rejection; it is redone
by the scalar loop, which rejects exactly as ``below``.  Short lists, and
the last few draws of a long one, take the scalar loop too.
"""

from __future__ import annotations

import sys

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = 1 << 64

_LANES = 128  # draws per block; each packed constant below takes about 2 KB
_MIN_BLOCK = 32  # fewer draws than this take the scalar loop
_LANE = 1 << 128
# a 1 at the bottom of every lane: the sum of _LANE**k for k < _LANES
_ONES = (_LANE**_LANES - 1) // (_LANE - 1)
_LOW64 = _MASK64 * _ONES
# lane k holds (k + 1) * gamma, from sum (k + 1) x**k = (n x**(n+1) - (n+1) x**n + 1) / (x - 1)**2
_RAMP = _GAMMA * (
    (_LANES * _LANE ** (_LANES + 1) - (_LANES + 1) * _LANE**_LANES + 1) // (_LANE - 1) ** 2
)
# the lanes' low halves, in lane order, among the native words of ``to_bytes(…, sys.byteorder)``
_LOW_WORDS = {"little": slice(0, None, 2), "big": slice(None, None, -2)}


def mix64(z: int) -> int:
    """SplitMix64 output finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_lanes(state: int) -> int:
    """``mix64(state + (k + 1) * gamma)`` in lane k, for every k < ``_LANES``."""
    z = (state * _ONES + _RAMP) & _LOW64
    z = ((z ^ (z >> 30)) & _LOW64) * _MIX1 & _LOW64
    z = ((z ^ (z >> 27)) & _LOW64) * _MIX2 & _LOW64
    return (z ^ (z >> 31)) & _LOW64


def _scalar_shuffle(items: list, state: int, hi: int, lo: int) -> int:
    """Fisher-Yates steps at positions ``hi`` down to ``lo + 1``; returns the state.

    A draw is rejected when ``z >= 2**64 - 2**64 % n``; the cheaper
    ``z < 2**64 - n`` accepts almost every draw before that bound is
    computed.
    """
    for i in range(hi, lo, -1):
        n = i + 1
        state = (state + _GAMMA) & _MASK64
        z = mix64(state)
        while z >= _TWO64 - n and z >= _TWO64 - _TWO64 % n:
            state = (state + _GAMMA) & _MASK64
            z = mix64(state)
        j = z % n
        items[i], items[j] = items[j], items[i]
    return state


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        limit = _TWO64 - _TWO64 % n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle; draws exactly as ``below(i + 1)`` would."""
        state = self._state
        i = len(items) - 1
        while i >= _MIN_BLOCK:
            count = min(i, _LANES)
            z = _mix_lanes(state)
            # only a draw >= 2**64 - (i + 1) can be rejected by a bound <= i + 1;
            # adding i + 1 carries exactly such a lane out of its low 64 bits
            flagged = z + (i + 1) * _ONES
            if flagged != flagged & _LOW64:
                state = _scalar_shuffle(items, state, i, i - count)
            else:
                words = memoryview(z.to_bytes(16 * _LANES, sys.byteorder)).cast("Q")
                for n, v in zip(range(i + 1, i + 1 - count, -1), words[_LOW_WORDS[sys.byteorder]]):
                    j = v % n
                    n -= 1
                    items[n], items[j] = items[j], items[n]
                state = (state + count * _GAMMA) & _MASK64
            i -= count
        self._state = _scalar_shuffle(items, state, i, 0)


def derive_stream(master_seed: int, index: int) -> SplitMix64:
    """Independent, reproducible sub-stream for one restart index."""
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    return SplitMix64(mix64((master_seed & _MASK64) + (index + 1) * _GAMMA))
