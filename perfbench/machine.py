"""Machine-speed probe and BLAS thread count.

On the 2-vCPU development host the speed of the benchmark's core depends on
load the guest cannot see: a fixed kernel runs ~1.7x (at times 2x) slower
while other work shares the physical core, for seconds to minutes at a
time.  Process time tracks wall-clock through it (the CPU is slower, the
process is not descheduled), the other vCPU stays idle in the guest, and
there is no PMU to count instructions instead.  Running a second busy
process on the other vCPU reproduces the slow state.

So every timed region is sampled: a ``SIGALRM`` handler runs
:func:`probe_kernel` every :data:`INTERVAL_S` of wall-clock while the region
runs.  A region's *scaled* seconds are its wall seconds minus the probe's
own time, multiplied by ``PROBE_REF_S / mean probe time inside it``: the
time the region would take on a machine where the probe takes
:data:`PROBE_REF_S`.  The probe never touches ``repro`` state or its
random streams, so sampled runs stay bit-identical.
"""

from __future__ import annotations

import ctypes
import glob
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

#: Scale constant: the probe time scaled seconds are expressed against.
PROBE_REF_S = 0.3e-3
#: Wall-clock seconds between probe samples inside a region.
INTERVAL_S = 0.05

_RNG = np.random.default_rng(7)
_H = _RNG.standard_normal((4, 4, 4)) + 1j * _RNG.standard_normal((4, 4, 4))


def blas_threads() -> int:
    """OpenBLAS's live thread count, or the pinned value when its library
    is not reachable."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", os.cpu_count() or 1))


def probe_kernel() -> float:
    """Seconds for a fixed mix of the engine's kind of work: tiny stacked
    linear algebra, small-array ufuncs and a pure-Python loop."""
    start = time.perf_counter()
    for _ in range(3):
        v = np.linalg.pinv(_H)
        np.clip(np.linalg.norm(v, axis=-2) - 0.5, 0.0, 1.0)
        float(np.sum(np.abs(_H @ v) ** 2))
    total = 0
    for i in range(300):
        total += i
    return time.perf_counter() - start


class Region:
    """One sampled stretch of wall-clock (see :func:`start`)."""

    def __init__(self, t0: float):
        self._t0 = t0
        self.samples: list[float] = []
        self.wall_s = 0.0
        #: Mean probe seconds inside the region, set by :meth:`stop`.
        self.probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe_kernel())

    def stop(self) -> "Region":
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # A region shorter than one interval is judged by a sample after it.
        self.probe_s = statistics.fmean(self.samples) if self.samples else probe_kernel()
        return self

    @property
    def scaled_s(self) -> float:
        work = self.wall_s - sum(self.samples)
        return work * PROBE_REF_S / self.probe_s


def start(t0: float | None = None) -> Region:
    """Begin sampling; ``t0`` backdates the region's start (a
    ``perf_counter`` reading taken before the probe could run)."""
    return Region(time.perf_counter() if t0 is None else t0)
