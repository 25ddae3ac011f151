"""Deterministic input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else that varies, and
draws from ``numpy.random.default_rng([salt, seed])`` so the three workloads
never share a stream. The same seed always gives the same bytes; the
benchmark records a SHA-256 of them so a result can be tied to its inputs.
Nothing here calls into the program under test.
"""

from __future__ import annotations

import datetime as dt
import hashlib

import numpy as np

CYCLE_PERIOD = 64.0  # days; the planted common cycle
CYCLE_AMPLITUDE = 0.04  # in log-price units
DAILY_VOL = 0.01  # log-price step standard deviation
FIRST_DAY = dt.date(2015, 1, 1)


def price_walks(seed: int, salt: int, n: int, p: int, cycled: int) -> np.ndarray:
    """(n, p) geometric random walks around 100; the first ``cycled`` share a cycle.

    The shared component is one sinusoid of period ``CYCLE_PERIOD`` days,
    added in log space with the same phase in every cycled series.
    """
    rng = np.random.default_rng([salt, seed])
    logp = np.log(100.0) + np.cumsum(DAILY_VOL * rng.standard_normal((n, p)), axis=0)
    cycle = CYCLE_AMPLITUDE * np.sin(2.0 * np.pi * np.arange(n) / CYCLE_PERIOD)
    logp[:, :cycled] += cycle[:, None]
    return np.exp(logp)


def varma_panel(seed: int, salt: int, n: int, p: int, burn_in: int = 500) -> np.ndarray:
    """(n, p) stationary VARMA(1,1) sample around 100 with cross-coupling.

    The model is fixed and only the innovations come from the seed: Phi has
    0.6 on the diagonal, 0.15 on the next series and -0.1 on the previous one
    (ring coupling, spectral radius about 0.66), Theta is 0.3 I, and every
    innovation carries a shared factor with loading 0.5.
    """
    rng = np.random.default_rng([salt, seed])
    eye = np.eye(p)
    phi = 0.6 * eye + 0.15 * np.roll(eye, 1, axis=1) - 0.1 * np.roll(eye, -1, axis=1)
    theta = 0.3 * eye
    eps = rng.standard_normal((n + burn_in, p)) + 0.5 * rng.standard_normal((n + burn_in, 1))
    z = np.zeros((n + burn_in, p))
    z[0] = eps[0]
    for t in range(1, n + burn_in):
        z[t] = phi @ z[t - 1] + eps[t] + theta @ eps[t - 1]
    return 100.0 + z[burn_in:]


def csv_bytes(values: np.ndarray) -> bytes:
    """Daily-dated CSV (``date,s0,s1,...``) starting at ``FIRST_DAY``."""
    n, p = values.shape
    lines = ["date," + ",".join(f"s{k}" for k in range(p))]
    for i in range(n):
        day = FIRST_DAY + dt.timedelta(days=i)
        lines.append(day.isoformat() + "," + ",".join(f"{v:.6f}" for v in values[i]))
    return ("\n".join(lines) + "\n").encode()


def day(index: int) -> str:
    """ISO date of row ``index`` in a CSV made by :func:`csv_bytes`."""
    return (FIRST_DAY + dt.timedelta(days=index)).isoformat()


def digest(data: bytes | np.ndarray) -> str:
    """SHA-256 of raw bytes, or of an array's little-endian float64 bytes."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()
