"""A fixed reference computation that gauges how fast the machine is running.

On a shared host the time of a fixed piece of work drifts by 20% or more over
minutes as neighbours load the cores, and it drifts within a run too. The
reference here never calls the program under test: on fixed data it runs a
Python loop of small matrix products (like the VARMA residual recursion), a
1461 x 120 least-squares solve (like the long autoregression), IIR filters
and Gaussian filters along 4096-long rows (like the wavelet smoother), about
20 ms in all. Sampled between units of a workload in the same process, its
typical time is the machine's pace during the run; a run's wall time divided
by it cancels most of the host's drift, while a change to the program moves
the ratio in full. On a 2-vCPU shared host, over ten seeds the quartile
spread of the wall time was 21% of its median on the rolling forecast and
that of the ratio 2.3%; on the coherence run, 18% and 13% (that run's 1.2 GB
working set gains less from a faster host than this cache-resident
reference does).
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

import numpy as np
from scipy.ndimage import gaussian_filter1d
from scipy.signal import lfilter


class Pace:
    """Times the reference computation on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20140101)
        self._phi = 0.1 * rng.standard_normal((8, 8))
        self._z = rng.standard_normal((730, 8))
        self._x = rng.standard_normal((1461, 120))
        self._y = rng.standard_normal(1461)
        self._rows = rng.standard_normal((6, 4096))
        self.samples: list[float] = []
        self._reference()  # first call pays lazy set-up; not kept

    def _reference(self) -> float:
        e = np.zeros_like(self._z)
        for t in range(1, self._z.shape[0]):
            e[t] = self._z[t] - self._phi @ self._z[t - 1] - 0.3 * e[t - 1]
        total = float(e[-1].sum())
        total += float(np.linalg.lstsq(self._x, self._y, rcond=None)[0].sum())
        for a in (0.2, 0.4, 0.6, 0.8):
            total += float(lfilter([1.0], [1.0, -a], self._y)[-1])
        for sigma in (4.0, 16.0, 64.0):
            total += float(gaussian_filter1d(self._rows, sigma, axis=1, mode="reflect")[:, 0].sum())
        return total

    def sample(self) -> float:
        """Run the reference once; record and return its wall time."""
        start = perf_counter()
        self._reference()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def typical(self) -> float | None:
        """Interquartile mean of the samples.

        A sample's time is bimodal as the host's load comes and goes, which
        makes the median jump between the modes from run to run; the mean of
        the middle half moves smoothly with their mix and drops outliers.
        """
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        quarter = len(ordered) // 4
        return statistics.fmean(ordered[quarter : len(ordered) - quarter])

    @contextlib.contextmanager
    def after_each_call(self, *hooks: tuple[object, str]):
        """Sample after every call of each ``(module, name)``; yield the sampling times.

        A name the module does not have is skipped. The caller subtracts the
        sum of the yielded times from a timed region that contains the calls.
        """
        spent: list[float] = []
        restore = []

        def sampled(original):
            def call(*args, **kwargs):
                out = original(*args, **kwargs)
                spent.append(self.sample())
                return out

            return call

        for module, name in hooks:
            if hasattr(module, name):
                restore.append((module, name, getattr(module, name)))
                setattr(module, name, sampled(restore[-1][2]))
        try:
            yield spent
        finally:
            for module, name, original in restore:
                setattr(module, name, original)
