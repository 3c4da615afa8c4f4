"""Host-speed calibration for the benchmark's end-to-end times.

The machine this benchmark was written on shares its cores with other
tenants. The kernel below ran there at ~116 us per call when quiet and at
~200-230 us during contention; the contended share varied between ~10% and
100% over seconds to minutes, so raw wall times of one workload moved by up
to 2x between runs minutes apart. The contention is not visible as steal time
and CPU time moves with wall time, so neither removes it.

Every end-to-end time is therefore scaled to the reference speed: a short
window of a fixed benchmark-owned kernel runs right before and right after
the timed operation, with no ``ssmi`` call in flight, and

    scaled time = wall time * REFERENCE_OP_S / (mean kernel call time)

An operation that lasts seconds can see the contention change inside it, so
``Scaled`` also samples during the block: an interval timer
(``SIGALRM``) runs a few-millisecond kernel window every ``tick_s`` from its
signal handler, and the time spent there is reported in ``spent`` so the
caller can take it out of the operation's wall time.

The kernel mixes what ``ssmi`` spends its time on: small-array numpy calls
(the voxel walk), scalar Python (A*, the octree descent) and one vectorised
pass (the information kernels). It imports nothing from ``ssmi``, so a change
to the program cannot change it. Raw wall times stay in each run's report.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Mean kernel call on the uncontended reference machine (2-core Intel Xeon
# VM, Python 3.11, numpy 2.4): the 5th percentile of 2,000 calls in a quiet
# stretch there.
REFERENCE_OP_S = 1.16e-4
TICK_WINDOW_S = 0.004

_STEP = np.array([0.5, -0.25, 0.125])
_VEC = np.arange(2048, dtype=np.float64) / 2048.0


def kernel() -> float:
    acc = 0.0
    v = np.zeros(3)
    for _ in range(16):
        v = np.where(v < 1.0, v + _STEP, v - _STEP)
        acc += float(np.min(v))
    for i in range(200):
        acc += (i * 7) % 13
    return acc + float(np.exp(-_VEC).sum())


def op_time(seconds: float) -> float:
    """Mean kernel call time over a window of about ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class Scaled:
    """Context manager: kernel windows before and after the block and every
    ``tick_s`` inside it; ``factor`` then converts wall time spent in the
    block, less ``spent`` (seconds inside the ticks), to reference-speed
    time."""

    def __init__(self, seconds: float, tick_s: float):
        self.seconds = seconds
        self.tick_s = tick_s
        self.factor = 1.0
        self.spent = 0.0
        self._means: list[float] = []  # one mean call time per window

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._means.append(op_time(TICK_WINDOW_S))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Scaled":
        self._means = [op_time(self.seconds)]
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._means.append(op_time(self.seconds))
        # windows are about evenly spaced in time, so each counts once
        self.factor = REFERENCE_OP_S / statistics.fmean(self._means)
