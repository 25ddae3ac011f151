"""Output checks: a wrong result counts as a failed operation.

Each check raises :class:`CheckFailed` with a one-line reason. They read only
plain arrays and files, so the self-check can feed them doctored outputs.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def unit_interval(name: str, values: np.ndarray) -> None:
    v = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(v) & (v >= 0.0) & (v <= 1.0))
    if bad.any():
        raise CheckFailed(f"{name}: {int(bad.sum())} values outside [0, 1], e.g. {v[bad].flat[0]!r}")


def phase_range(name: str, values: np.ndarray) -> None:
    v = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(v) & (np.abs(v) <= math.pi))
    if bad.any():
        raise CheckFailed(f"{name}: {int(bad.sum())} phases outside [-pi, pi], e.g. {v[bad].flat[0]!r}")


def coherence_grids(multiple: np.ndarray, partial_sq: dict, partial_phase: dict) -> None:
    """Multiple and partial coherence in [0, 1], phases in [-pi, pi]."""
    unit_interval("multiple coherence", multiple)
    for j, grid in partial_sq.items():
        unit_interval(f"partial coherence {j}", grid)
    for j, grid in partial_phase.items():
        phase_range(f"partial phase {j}", grid)


def factor_contrast(
    multiple: np.ndarray,
    usable: np.ndarray,
    periods: np.ndarray,
    period: float,
    half_width_octaves: float = 0.25,
) -> float:
    """Mean multiple coherence in the planted band minus the mean elsewhere.

    Only ``usable`` cells (unflagged, inside the cone of influence) count.
    The band is the scales whose Fourier period lies within
    ``half_width_octaves`` of ``period``. Raises unless the contrast is > 0.
    """
    band = np.abs(np.log2(periods / period)) <= half_width_octaves
    inside = usable & band[:, None]
    outside = usable & ~band[:, None]
    if not inside.any() or not outside.any():
        raise CheckFailed("factor contrast: no usable cells in or outside the band")
    contrast = float(multiple[inside].mean() - multiple[outside].mean())
    if not contrast > 0.0:
        raise CheckFailed(f"factor contrast {contrast!r} is not positive")
    return contrast


def forecast_bands(name: str, points, lower, upper) -> None:
    """Every forecast finite, with lower <= point <= upper."""
    pt, lo, up = (np.asarray(a, dtype=float) for a in (points, lower, upper))
    if not (np.isfinite(pt).all() and np.isfinite(lo).all() and np.isfinite(up).all()):
        raise CheckFailed(f"{name}: non-finite forecast")
    if not ((lo <= pt).all() and (pt <= up).all()):
        raise CheckFailed(f"{name}: forecast outside its band")


def finite_mse(name: str, values) -> None:
    v = np.asarray(values, dtype=float)
    if v.size == 0 or not np.isfinite(v).all():
        raise CheckFailed(f"{name}: MSE missing or not finite")


def pipeline_outputs(out_dir: str) -> int:
    """Check a ``comove pipeline`` output directory; returns bytes written.

    ``manifest.txt`` must list exactly the files present, every coherence
    grid value must lie in [0, 1] and every phase in [-pi, pi], every
    forecast must sit inside its band, and the comparison must hold finite
    MSEs.
    """
    present = sorted(os.listdir(out_dir))
    manifest_path = os.path.join(out_dir, "manifest.txt")
    if not os.path.isfile(manifest_path):
        raise CheckFailed("pipeline: no manifest.txt")
    with open(manifest_path) as fh:
        listed = sorted(line.strip() for line in fh if line.strip())
    if listed != present:
        missing = sorted(set(present) ^ set(listed))
        raise CheckFailed(f"pipeline: manifest and directory differ on {missing[:3]}")
    for name in present:
        path = os.path.join(out_dir, name)
        if name.startswith(("mwc_", "pwc_")):
            unit_interval(name, _grid_values(path))
        elif name.startswith("phase_"):
            phase_range(name, _grid_values(path))
    rows = _csv_rows(os.path.join(out_dir, "forecasts.csv"))
    forecast_bands(
        "forecasts.csv",
        [r["point"] for r in rows],
        [r["lower"] for r in rows],
        [r["upper"] for r in rows],
    )
    rows = _csv_rows(os.path.join(out_dir, "comparison.csv"))
    finite_mse("comparison.csv", [r[k] for r in rows for k in ("arma_mse", "varma_mse")])
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in present)


def _grid_values(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=2, ndmin=1)


def _csv_rows(path: str) -> list[dict[str, str]]:
    if not os.path.isfile(path):
        raise CheckFailed(f"pipeline: {os.path.basename(path)} missing")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
