"""Portable deterministic pseudo-randomness for the search heuristics.

The generator is SplitMix64 (Steele, Lea, Flood 2014) with the standard
constants: state advances by the golden-gamma increment 0x9E3779B97F4A7C15
and outputs pass through the 30/27/31-shift, 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB finalizer.  Pure 64-bit integer arithmetic, so streams
are identical on every platform and Python version.

Restart streams are derived as ``mix64(master + (index + 1) * gamma)``;
bounded draws use rejection sampling, so shuffles are exactly uniform.
``shuffle`` steps the state in one flat loop but draws exactly as
``below`` does: same outputs, same rejections, same final state.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = 1 << 64


def mix64(z: int) -> int:
    """SplitMix64 output finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


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
        """In-place Fisher-Yates shuffle; draws exactly as ``below(i + 1)`` would.

        The state is stepped in a local variable.  A draw is rejected when
        ``z >= 2**64 - 2**64 % n``; the cheaper ``z < 2**64 - n`` accepts
        almost every draw before that bound is computed.
        """
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            state = (state + _GAMMA) & _MASK64
            z = mix64(state)
            while z >= _TWO64 - n and z >= _TWO64 - _TWO64 % n:
                state = (state + _GAMMA) & _MASK64
                z = mix64(state)
            j = z % n
            items[i], items[j] = items[j], items[i]
        self._state = state


def derive_stream(master_seed: int, index: int) -> SplitMix64:
    """Independent, reproducible sub-stream for one restart index."""
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    return SplitMix64(mix64((master_seed & _MASK64) + (index + 1) * _GAMMA))
