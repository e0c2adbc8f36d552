"""Machine-speed calibration: a small fixed numpy kernel timed while a round runs.

The vCPUs of the machine the benchmark was built on change speed by up to
2x, over seconds and over minutes, and CPU time changes with them (see
README, "Machine").  So while a measurement runs, a wall-clock timer
interrupts it every ``PERIOD_S`` and runs one tick of this kernel in the
benchmark process; the kernel's CPU time is taken out of the measurement,
and the measurement is scaled by how long a tick took on average over the
same seconds::

    scaled_s = (cpu_s - ticks_cpu_s) * REF_TICK_S / mean_tick_s

which reads as CPU seconds on a machine where a tick takes ``REF_TICK_S``.
The kernel uses only numpy and ``reference.py``, never factorlab, so a
change to the program moves the scaled figures exactly as it moves the
program's CPU time.  A tick mixes the three kinds of work the program does:
GD steps on one small stack, small LAPACK calls and a batched GD step.
During a sweep the benchmark process only waits for its pool workers, and
the ticks run there as well.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

import reference

PERIOD_S = 0.05
REF_TICK_S = 0.002  # a tick's CPU seconds on the reference machine (README)

_rng = np.random.default_rng(20240101)
_ONE = 0.5 * _rng.standard_normal((4, 5, 5))
_CPLX = _rng.standard_normal((5, 5)) + 1j * _rng.standard_normal((5, 5))
_BATCH = 0.5 * _rng.standard_normal((64, 4, 5, 5))
_EYE = np.eye(5)


def _tick_kernel() -> None:
    s = _ONE
    for _ in range(4):
        s = reference.gd_step(s, _EYE, 0.0, 1e-3)
    for _ in range(16):
        np.linalg.svd(_CPLX)
    reference.gd_step(_BATCH, _EYE, 1.0, 1e-3)


def tick_s() -> float:
    """CPU seconds of one tick of the kernel."""
    c0 = time.process_time()
    _tick_kernel()
    return time.process_time() - c0


class Sampler:
    """Runs a tick every ``PERIOD_S`` of wall time inside ``with``.

    ``ticks`` holds each tick's CPU seconds.  Off while ``enabled`` is
    false: a traced round must not trace the kernel's numpy calls.
    """

    enabled = True

    def __enter__(self):
        self.ticks: list[float] = []
        if Sampler.enabled:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if Sampler.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum, frame) -> None:
        self.ticks.append(tick_s())

    @property
    def kernel_s(self) -> float:
        return sum(self.ticks)

    @property
    def scale(self) -> float:
        """Factor from CPU seconds here to CPU seconds at the reference speed."""
        if not Sampler.enabled:  # traced rounds are not scaled
            return math.nan
        return REF_TICK_S / statistics.mean(self.ticks or [tick_s()])


_tick_kernel()  # first calls into numpy and LAPACK are not timed
