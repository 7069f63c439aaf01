"""Host-speed calibration for the benchmark's times.

The benchmark runs on shared machines where the CPU under this process slows
down by up to 1.8x whenever another tenant's work lands on its sibling
hardware thread.  The slow and fast spells last 10-100 ms, and their mix
drifts over minutes: the same ``verify`` took 1.7 s and, six minutes later,
2.8 s.  Raw times from two sets of runs can therefore differ by more than any
useful regression bound while the program stays the same.

``SpeedProbe`` samples a small fixed kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds of wall time while the program runs.  The kernel does
the kind of work hamop does (exact-rational sparse polynomial products over
dicts of exponent tuples) but shares no code with it, so a change to hamop
cannot change the kernel's time.  ``scale`` turns a raw time into the time it
would take on a host where the kernel takes ``REFERENCE_S``: the raw time
times the mean of ``REFERENCE_S / kernel time`` over the samples taken during
the measured span, which is the span's mean speed relative to the reference.
Regressing the log time of a hamop operation on its log mean slowdown gave
slopes of 1.03 (symbolic verify) and 1.07 (pointcheck) over 68 operations
each, so the kernel slows down as much as hamop does.  The kernel takes
0.15-0.3 ms, so sampling costs 2-3% of the run.

The kernel runs inside hamop's process, so its allocations could start a
garbage collection that walks hamop's heap and bill it to the kernel; a hamop
change that grew its heap would then look like a slower host and be scaled
away.  The collector is therefore off while the kernel runs.
``selftest.test_scaled_time_follows_an_injected_slowdown`` checks that extra
work and a larger heap inside hamop show up in the scaled time in full.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_S = 0.0002
MIN_SAMPLES = 5


def _operand(rng: random.Random) -> dict:
    return {
        tuple(rng.randint(0, 4) for _ in range(6)): Fraction(rng.randint(1, 99), rng.randint(1, 9))
        for _ in range(6)
    }


_RNG = random.Random(0)
_A, _B = _operand(_RNG), _operand(_RNG)


def kernel() -> dict:
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def time_kernel() -> float:
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Context manager that samples ``kernel`` every ``INTERVAL_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(time_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, start: int = 0, end: int | None = None) -> float:
        """Factor from raw times to reference-host times for the span between
        marks ``start`` and ``end`` (default: now).  A span with fewer than
        ``MIN_SAMPLES`` samples uses the ``MIN_SAMPLES`` around it, topped up
        with direct kernel runs at the end of the record."""
        end = len(self.samples) if end is None else end
        if end - start < MIN_SAMPLES:
            start = max(0, (start + end - MIN_SAMPLES) // 2)
            end = start + MIN_SAMPLES
        window = self.samples[start:end]
        while len(window) < MIN_SAMPLES:
            window.append(time_kernel())
        return statistics.mean(REFERENCE_S / k for k in window)
