"""Scaling measured times to a fixed machine speed.

On a shared machine the speed of the same single-threaded code swings by
up to 2x, over stretches from a few seconds to minutes, because other
tenants contend for the physical cores (the process's own CPU time swings
with its wall time, so this is not time spent descheduled).  A median
taken within one run cannot remove a slowdown that lasts the whole run.

So a fixed pure-Python reference kernel is timed just before and just
after every timed call and, from a ``SIGALRM`` timer, every
``SAMPLE_EVERY_S`` seconds during it; the kernel time spent inside the
call is subtracted from it.  The call's time is then scaled by
``REFERENCE_S / mean kernel time``.  The result reads as seconds on a core
that runs the kernel in ``REFERENCE_S``: an uncontended core of the
2.1 GHz Xeon virtual machine the benchmark was written on.  The kernel is
owned by the benchmark and never changes, so a change to ``zlq`` moves
scaled times as it moves raw ones.  On that machine, sampling during the
call cut the coefficient of variation of single ``solve_exact(4)`` times
from 12% (kernel before and after only) to 5%.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.023
SAMPLE_EVERY_S = 0.3
_ITERATIONS = 80_000
_MASKS = tuple((k * 0x9E3779B97F4A7C15) & ((1 << 60) - 1) for k in range(64))


def _kernel() -> int:
    """Big-integer bit operations in a Python loop, like the admissibility kernel."""
    masks = _MASKS
    acc = 0
    for i in range(_ITERATIONS):
        a, b = masks[i & 63], masks[(i * 7) & 63]
        x = (a & ~b) | (b >> 3)
        if x & 1:
            acc += x.bit_count()
        else:
            acc ^= (x & -x).bit_length()
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


@dataclass
class Lap:
    raw: float = 0.0  # seconds, less the kernel samples taken inside
    scaled: float = 0.0


class ReferenceClock:
    """Times calls and scales them by the reference kernel timed around and inside them."""

    def __init__(self):
        self._before = kernel_seconds()
        self.kernel_times = [self._before]
        self._inside: list[float] = []
        self._inside_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self._inside.append(kernel_seconds())
        self._inside_s += perf_counter() - t0

    @contextmanager
    def timing(self, sample: bool = True):
        """Time the ``with`` body; ``sample=False`` skips the samples inside it."""
        lap = Lap()
        self._inside, self._inside_s = [], 0.0
        if sample:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = perf_counter()
        try:
            yield lap
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
            if sample:
                signal.signal(signal.SIGALRM, previous)
            after = kernel_seconds()
            kernels = [self._before, *self._inside, after]
            self.kernel_times.extend(kernels[1:])
            self._before = after
            lap.raw = elapsed - self._inside_s
            lap.scaled = lap.raw * REFERENCE_S / statistics.fmean(kernels)
