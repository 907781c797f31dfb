"""The machine's current speed, sampled between and during the benchmark's operations.

The host's CPUs are shared.  Their speed swings by up to 2x, in phases from a tenth
of a second to minutes, and it drifts between runs an hour apart; CPU time moves
with wall time, so the process is not descheduled: the CPU itself runs slower.
A fixed kernel -- the library's mix in miniature: small SVDs, interpreted loops of
small matrix-vector products, float formatting -- measures that speed.  It runs
before and after every timed operation and, from a timer signal, every
``INTERVAL_S`` during it.  An operation's latency, less the time its samples took,
divided by ``Speedometer.factor(...)`` is the latency it would have had on the
reference machine, where one kernel iteration takes ``REF_S_PER_ITERATION``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_S_PER_ITERATION = 0.010 / 160  # measured on a 2-vCPU Intel Xeon, Python 3.11
BOUNDARY_ITERATIONS = 160  # about 10 ms, before and after each operation
TICK_ITERATIONS = 16  # about 1 ms, every INTERVAL_S during an operation
INTERVAL_S = 0.025

_A = np.linspace(-1.0, 1.0, 256).reshape(16, 16) + np.eye(16)
_V = _A[3].copy()


def _iteration(s: float) -> float:
    s += np.linalg.svd(_A, compute_uv=False)[0]
    for j in range(16):
        s += float(_A[j] @ _V)
    f"{s:.17g}".encode()
    return s


def kernel(iterations: int) -> float:
    """Seconds that ``iterations`` rounds of the fixed kernel take now.

    One untimed round runs first: it refills the caches the interrupted operation
    evicted, which would otherwise slow the short samples taken during it most."""
    s = _iteration(0.0)
    start = time.perf_counter()
    for _ in range(iterations):
        s = _iteration(s)
    return time.perf_counter() - start


class Speedometer:
    """Samples the speed around and during one timed interval.

    ``boundary()`` samples between intervals.  Inside ``with meter:`` a timer signal
    samples every ``INTERVAL_S``; ``interrupted`` sums the seconds those samples
    took, to be taken off the interval.  ``factor()`` weighs each sample by the time
    it stands for, and divides by the reference: above 1, the machine is slower."""

    def __init__(self):
        self.ticks = []
        self.interrupted = 0.0

    @staticmethod
    def boundary() -> float:
        """Seconds per kernel iteration now."""
        return kernel(BOUNDARY_ITERATIONS) / BOUNDARY_ITERATIONS

    def factor(self, before: float, after: float, seconds: float) -> float:
        """Speed factor of an interval of ``seconds`` between two boundary samples.

        The ticks stand for ``INTERVAL_S`` each, the two boundaries for half of one
        interval each, or of the whole when it is shorter."""
        edge = min(seconds, INTERVAL_S)
        pooled = edge * (before + after) / 2 + INTERVAL_S * sum(self.ticks)
        return pooled / (edge + INTERVAL_S * len(self.ticks)) / REF_S_PER_ITERATION

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append(kernel(TICK_ITERATIONS) / TICK_ITERATIONS)
        self.interrupted += time.perf_counter() - start

    def __enter__(self):
        self.ticks, self.interrupted = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
