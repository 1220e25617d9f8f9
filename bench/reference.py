"""Machine speed, measured beside and during every solve by a fixed kernel.

On a shared machine the CPU time of identical work drifts with what the
other tenants run: 30 s windows of the same repeated solve, in one process,
read medians from 0.75 s to 0.98 s a solve, and the drift holds for tens of
seconds, longer than most solves. Repetition within a run cannot remove
it. The kernel below does the same kind of work as a solve (small batched
3×3 numpy operations driven from Python) but calls no code of the program,
so its time follows the machine and not the program. While a solve runs, an
interval timer interrupts it every ``INTERVAL_S`` and times one pass of the
kernel; that pass's CPU time is taken out of the solve's. The timer runs on
the wall clock: with a CPU-time timer (``ITIMER_PROF``) armed, some kernels
step the process CPU clock in whole scheduler ticks of 4 ms, too coarse for
the traced run's short calls. A solve's scaled time is its CPU time times
``REFERENCE_S`` over the median kernel pass around and during it: the CPU
seconds it would take on a machine where a pass takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# A fixed constant, near a pass's median time on the machine of the
# reference figures, so that scaled times read as seconds there and those
# of two versions of the program compare directly.
REFERENCE_S = 0.0050
STEPS = 150
INTERVAL_S = 0.1

_spent = 0.0   # CPU seconds of every pass taken inside a measured block


def kernel_pass() -> float:
    """Seconds of one pass of the kernel, by the wall clock. A pass that
    another process preempts reads long, and the median over passes
    discards it."""
    base = np.linspace(0.1, 1.0, 72).reshape(8, 3, 3) + np.eye(3)
    start = time.perf_counter()
    x, y = base, np.ones((8, 3))
    for _ in range(STEPS):
        y = np.einsum("sij,sj->si", x, y)
        y = y / np.linalg.norm(y, axis=-1, keepdims=True)
        x = x @ base
        x = x / np.abs(x).max()
        np.linalg.solve(base, y[..., None])
    return time.perf_counter() - start


def spent() -> float:
    """CPU seconds that passes inside measured blocks have taken so far, for
    timers inside a block (the traced run's) to take out of their own."""
    return _spent


def scaled(seconds: float, passes: list[float]) -> float:
    """CPU seconds at the reference machine speed."""
    return seconds * REFERENCE_S / statistics.median(passes)


class Meter:
    """Times one block of work in process CPU time, with kernel passes
    around and during it.

    ``passes`` holds the pass times: one before the block, one each
    ``INTERVAL_S`` inside it, one after. ``seconds`` is the block's CPU
    time without the passes inside it.
    """

    def __init__(self):
        self.passes: list[float] = []
        self.seconds = 0.0
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        global _spent
        if not self._armed:
            return
        self._armed = False
        start = time.process_time()
        self.passes.append(kernel_pass())
        _spent += time.process_time() - start
        self._armed = True

    @contextmanager
    def measure(self):
        self.passes.append(kernel_pass())
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start, paused = time.process_time(), _spent
        try:
            yield self
        finally:
            self._armed = False
            end = time.process_time()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.seconds = end - start - (_spent - paused)
            self.passes.append(kernel_pass())
