"""Calibrated seconds: wall time corrected for the speed of a shared host.

On a shared host the same vkwave execution's wall time swings by up to
1.8x, in spells from seconds to minutes, all of it user time: most
likely neighbours contending for the caches.  That is far more than any
bound a regression check can use.  Tiny kernels that live in a core's
private caches barely notice; work that walks megabytes of Python
objects and numpy temporaries, as vkwave's does, slows with it.

So while a span is timed, a timer signal runs a fixed calibration kernel
every ``INTERVAL_S`` seconds: dictionary lookups scattered over a table of
``TABLE`` integer keys, then small-array numpy arithmetic shaped like a jet
batch.  The kernel shares no code with vkwave.  A span's calibrated time is
its wall time, minus the time spent in the kernel, scaled by ``REF_S`` over
the mean kernel time sampled during it (plus one sample right after it,
so that every span has one).  It reads as seconds on a machine where the
kernel takes ``REF_S``.  A change to vkwave moves the span but not the
kernel, so calibrated times compare across commits as wall times do, and
a speed spell of the host moves both and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Keys in the lookup table: a few megabytes, beyond a core's private caches.
TABLE = 50_000
LOOKUPS = 5_000
#: Small-array operations per kernel run, on arrays of one jet batch's shape.
ARRAY_OPS = 100
INTERVAL_S = 0.25
#: Kernel time that calibrated seconds are expressed against: the median
#: kernel time on a quiet 2-vCPU KVM guest (Xeon, Python 3.11, numpy 2).
REF_S = 0.004


class Calibration:
    """The calibration kernel, and spans timed in calibrated seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # Integer keys: string hashes change with each interpreter's hash
        # seed, and with them the table's layout and the kernel's time.
        keys = [key * 7919 for key in range(TABLE)]
        self.table = {key: 1.0 for key in keys}
        self.lookups = [keys[i] for i in rng.integers(0, TABLE, LOOKUPS)]
        self.jets = rng.random((43, 35))
        self.points = rng.random((43, 3))
        self.samples: list[float] = []
        self.spent = 0.0
        self.kernel()  # the first run pays for lazy set-up

    def kernel(self) -> float:
        """Run the calibration kernel once; return its wall seconds."""
        start = time.perf_counter()
        total = 0.0
        for key in self.lookups:
            total += self.table[key]
        for _ in range(ARRAY_OPS):
            scaled = self.jets * self.points[:, :1] + self.jets
            total += float(np.einsum("ij,ij->i", scaled, self.jets).sum())
        return time.perf_counter() - start

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - start

    def time(self, fn):
        """Call fn(); return (its result, wall seconds, calibrated seconds).

        The wall seconds exclude the kernel runs the timer made during the
        call; the kernel pollutes the caches, so the call itself runs a
        little slower than it would untimed, by the same share on every
        commit.
        """
        self.samples = []
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self.spent
        self.samples.append(self.kernel())
        return result, wall, self.calibrated(wall, self.samples)

    @staticmethod
    def calibrated(wall: float, samples) -> float:
        """Wall seconds in calibrated seconds, given the kernel times around them."""
        return wall * REF_S / statistics.fmean(samples)
