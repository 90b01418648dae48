"""Host-speed calibration for the benchmark's timings.

The benchmark runs on hosts shared with other tenants, whose speed drifts by
a quarter or more over minutes, and that drift hits a whole run at once.  So
each worker process also times a fixed kernel, independent of cflab, between
its timed jobs, and the run scales its times by

    scale = CAL_REF_S / (median kernel time over the run's processes)

A slower host makes both the kernel and the workload slower, and the scale
cancels the drift.  A change to cflab moves the workload and not the kernel,
so it moves the scaled metrics as much as the unscaled ones.  CAL_REF_S is
the kernel's median time on the 2-vCPU Xeon host the baseline was recorded
on, so scaled times read as times on that host at its usual speed.

The kernel mixes the two kinds of work that most of cflab's time goes to:
a big-integer Euclidean algorithm, as in quotient certification in cf, and a
pure-Python integer loop, as in the harness and stats code.  Timed next to
the workloads on the reference host, this pair tracked the drift of
deep_levy, wide_q and reference_series well.  farey_oracle scans Farey tables
of about 20 MB per chi_mask call, so its speed also follows how much of the
host's shared L3 cache other tenants leave it, which the pair does not see.
A kernel streaming over an array of that size would see it, but it changed
the workload it measured: with such an array allocated and freed between
jobs, farey_oracle ran faster and peaked 30 MB higher (freeing a large block
raises glibc's mmap threshold, so later large temporaries stay on the heap).
So the kernel holds no more than a few small integers.

The kernel's own times vary from run to run of it, so a run needs a few
dozen of them; one run per CAL_EVERY_S of work costs about a tenth of the
run's time.
"""

from __future__ import annotations

import random
import statistics
import time

CAL_REF_S = 0.040  # median kernel time on the reference host
CAL_EVERY_S = 0.5  # one kernel run per this much other work
CAL_BURST = 10     # most kernel runs at one call of Calibration.due

_SEED = 0x0907_0161


class Calibration:
    """Kernel times of one worker process, taken between its timed work."""

    def __init__(self):
        rng = random.Random(_SEED)
        self._a = rng.getrandbits(20_000) | 1
        self._b = rng.getrandbits(19_990) | 1
        self._last = time.monotonic()
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds this process spent calibrating

    def kernel(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        t = time.perf_counter()
        a, b = self._a, self._b
        while b:
            a, b = b, a % b
        s = 0
        for i in range(150_000):
            s += i * i % 7
        return time.perf_counter() - t

    def due(self) -> None:
        """Time the kernel once per CAL_EVERY_S of work since it last ran, so
        that its samples spread over the run like the work does; at least
        once per process."""
        t = time.monotonic()
        runs = min(int((t - self._last) / CAL_EVERY_S), CAL_BURST) or int(not self.samples)
        if runs:
            self.samples.extend(self.kernel() for _ in range(runs))
            self._last = time.monotonic()
            self.spent += self._last - t


def scale(samples: list[float]) -> float:
    """Factor that turns a run's seconds into reference seconds."""
    return CAL_REF_S / statistics.median(samples)
