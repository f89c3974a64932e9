"""Host-speed correction of wall timings.

On a shared virtual machine the same code runs at two speeds that differ by
up to 1.6x, switching every second or so as other tenants load the host; CPU
time moves with wall time.  Medians of raw timings then depend on how long
each run happened to spend in each state, and spread by 30-50% between runs.

A fixed reference kernel (interpreter loop plus small numpy einsum/gather,
like the package's own mix) is timed next to every measured call.  A
measured duration is reported as ``raw * REFERENCE_S / kernel_time``: the
duration at the speed the host has when it runs the kernel in REFERENCE_S, a
fixed scale near the kernel's fast-state time on the 2-vCPU Xeon host the
bounds were set on; only ratios between runs on one host matter.  Raw
durations are kept beside the corrected ones in ``samples.json``.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 5.0e-4
REFRESH_S = 0.02
# process start-up follows the host speed differently from in-process work;
# its reference kernel is a fresh interpreter importing numpy
START_KERNEL = ("-c", "import numpy")
REFERENCE_START_S = 0.12


class HostSpeed:
    """Current host speed relative to the reference, and corrected timing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((512, 2, 2))
        self._b = rng.random((512, 2, 2, 2))
        self._idx = rng.integers(0, 512, (512, 4))
        self._flat = rng.random(512)
        self._at = -np.inf
        self._factor = 1.0
        self.kernel_s = 0.0       # time spent running the reference kernel
        self.raw_s = 0.0          # total raw time of calls timed with time()
        self.corrected_s = 0.0    # the same, corrected

    def _kernel(self) -> int:
        s = 0
        for i in range(200):
            s += i * i % 7
        for _ in range(3):
            np.einsum("nai,nijk->najk", self._a, self._b)
            self._flat[self._idx].sum(axis=1)
        return s

    def factor(self) -> float:
        """REFERENCE_S over the kernel's best-of-two time, at most REFRESH_S old."""
        now = time.perf_counter()
        if now - self._at > REFRESH_S:
            best = np.inf
            for _ in range(2):
                t0 = time.perf_counter()
                self._kernel()
                best = min(best, time.perf_counter() - t0)
            self._factor = REFERENCE_S / best
            self._at = time.perf_counter()
            self.kernel_s += self._at - now
        return self._factor

    def time(self, fn, *args, **kwargs):
        """(result, raw seconds, correction factor) of one call; the factor
        averages the host speed measured before and after it."""
        f0 = self.factor()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        factor = 0.5 * (f0 + self.factor())
        self.raw_s += raw
        self.corrected_s += raw * factor
        return result, raw, factor

    @contextlib.contextmanager
    def block(self):
        """Raw seconds of a block, kernel time excluded, and the time-weighted
        correction factor of the calls timed inside it: ``{"raw", "factor"}``."""
        out = {}
        t0, k0, r0, c0 = time.perf_counter(), self.kernel_s, self.raw_s, self.corrected_s
        yield out
        out["raw"] = time.perf_counter() - t0 - (self.kernel_s - k0)
        timed = self.raw_s - r0
        out["factor"] = (self.corrected_s - c0) / timed if timed > 0 else self.factor()

    def start_factor(self, env, cwd) -> float:
        """REFERENCE_START_S over the best of two fresh-interpreter kernels."""
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *START_KERNEL], env=env, cwd=cwd,
                           capture_output=True, timeout=60, check=True)
            best = min(best, time.perf_counter() - t0)
        return REFERENCE_START_S / best
