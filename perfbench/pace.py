"""Wall time corrected for the momentary speed of a shared machine.

On a shared host the same code runs up to 1.6 times slower for seconds or
minutes at a time, and the slowdown is common to interpreter work, numpy
array work and sparse LU alike.  A minimum over passes cannot remove a
slowdown that lasts a whole run, so the benchmark measures the slowdown as
it happens: a fixed calibration kernel (a Python loop, small-array numpy
arithmetic and a small sparse LU, about 1 ms, independent of wavekit) runs at
call boundaries of the program at most every INTERVAL_S seconds.  The time
the kernel takes is left out of the program's timings, and each stretch of
the program's wall time is scaled by REFERENCE_S / (the kernel's local median
duration).  The result reads as seconds on this machine at the speed where
the kernel takes REFERENCE_S, about its speed when no other load slows it.

`Pacer` records the marks and kernel samples of one job; `Pacer.paced`
turns them into wall and paced seconds per task.  The marks are placed by
tracer.install_marks at the entry of the coarse wavekit calls.
"""

from __future__ import annotations

import bisect
import functools
import importlib.util
import statistics
import time

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

# the kernel's duration on an unloaded 2-vCPU VM (Python 3.11, numpy 2.4,
# scipy 1.17, one OpenBLAS thread): loaded, it takes up to 1.7 ms
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.05
# a stretch of the program is paced by the median kernel sample taken within
# WINDOW_S of it, and by at least MIN_SAMPLES samples, the nearest ones
WINDOW_S = 0.15
MIN_SAMPLES = 5
# set-up is module loading: it is paced by re-running the module bodies of
# these pure-Python standard modules; that takes IMPORT_REFERENCE_S on the
# machine that REFERENCE_S describes
IMPORT_MODULES = ("argparse", "ast", "dataclasses", "inspect", "typing")
IMPORT_REFERENCE_S = 10.0e-3

_X = np.linspace(0.0, 1.0, 2048)
_N = 800
_M = scipy.sparse.diags([np.full(_N - 1, -1.0), np.full(_N, 4.0), np.full(_N - 1, -1.0)],
                        [-1, 0, 1], format="csc")


def kernel_s() -> float:
    """Duration of one run of the calibration kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    x = _X
    for _ in range(15):
        x = np.sin(x) * 0.5 + x
    splu(_M).solve(_X[:_N])
    return time.perf_counter() - t0


def import_kernel_s() -> float:
    """Duration of loading and running the IMPORT_MODULES once more, uncached."""
    t0 = time.perf_counter()
    for name in IMPORT_MODULES:
        spec = importlib.util.find_spec(name)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return time.perf_counter() - t0


def _window(times, t0, t1) -> tuple[int, int]:
    """Indices [i, j) of the samples within WINDOW_S of [t0, t1], widened to
    the MIN_SAMPLES nearest when there are fewer."""
    i = bisect.bisect_left(times, t0 - WINDOW_S)
    j = bisect.bisect_right(times, t1 + WINDOW_S)
    while j - i < min(MIN_SAMPLES, len(times)):
        if j >= len(times) or (i > 0 and t0 - times[i - 1] <= times[j] - t1):
            i -= 1
        else:
            j += 1
    return i, j


class Pacer:
    """Marks call boundaries of one job and samples the kernel between them.

    Times are kept on a clock that stops while the kernel runs, so the
    kernel never counts toward the program's time.
    """

    def __init__(self):
        self.marks = []       # [(time, task)]: the stretch from here to the next mark
        self.samples = []     # [(time, kernel seconds)]
        self.task = None
        self._paused = 0.0
        self._last = -float("inf")

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def mark(self, force: bool = False) -> None:
        t = self.now()
        self.marks.append((t, self.task))
        if force or t - self._last >= INTERVAL_S:
            k = kernel_s()
            self._paused += k
            self.samples.append((t, k))
            self._last = t

    def wrap(self, fn):
        mark = self.mark

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)

        return marked

    def paced(self) -> dict:
        """Wall and paced seconds of the job and of each task; the last mark ends the job."""
        times = [t for t, _ in self.samples]
        ks = [k for _, k in self.samples]
        wall, paced = {}, {}
        for (t0, task), (t1, _) in zip(self.marks, self.marks[1:]):
            local = statistics.median(ks[slice(*_window(times, t0, t1))])
            key = task or ""
            wall[key] = wall.get(key, 0.0) + (t1 - t0)
            paced[key] = paced.get(key, 0.0) + (t1 - t0) * REFERENCE_S / local
        return {"wall_s": sum(wall.values()), "paced_s": sum(paced.values()),
                "task_wall_s": {k: v for k, v in wall.items() if k},
                "task_paced_s": {k: v for k, v in paced.items() if k},
                "kernel_samples": len(ks), "kernel_median_s": statistics.median(ks)}
