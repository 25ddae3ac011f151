"""Multiple and partial wavelet coherence for up to eight series.

Everything here operates on a field of small Hermitian matrices: at each
(scale, time) cell, entry (i, j) is the smoothed cross-coherency between
series i and j, with unit diagonal. Multiple coherence of a target on the
remaining series, partial coherencies with the others held fixed, and the
closed-form four-series expansion are all determinant identities on that
matrix, evaluated vectorized over the whole grid.

Conventions: the squared multiple coherence is ``1 - det(C) / det(M11)``
where ``M11`` deletes the target row and column, and the partial coherency of
target t with series j given the rest is ``-cof(C, j, t) /
sqrt(cof(C, t, t) * cof(C, j, j))`` with signed cofactors. Both are invariant
to how the non-target series are ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cwt import Smoother, WaveletField, cross_spectrum, smooth

_SINGULAR_MINOR_TOL = 1e-14
_HERMITIAN_TOL = 1e-8
_UNIT_DISC_TOL = 1e-9


@dataclass(frozen=True)
class CoherenceField:
    """Grid of Hermitian unit-diagonal coherency matrices.

    Attributes
    ----------
    cells : ndarray, complex, shape (num_scales, n, p, p)
        Coherency matrix per (scale, time) cell. Hermitian with unit
        diagonal; off-diagonal magnitudes at most 1 up to rounding.
    labels : tuple of str
        Series names, one per matrix row.
    scales : ndarray, shape (num_scales,)
    dt : float
    coi_outside : ndarray, bool, shape (num_scales, n)
        True where the cell lies outside the cone of influence.
    degenerate : ndarray, bool, shape (num_scales, n)
        True where a smoothed auto-spectrum vanished (constant input); the
        cell is stored as the identity matrix.
    """

    cells: np.ndarray
    labels: tuple[str, ...]
    scales: np.ndarray
    dt: float
    coi_outside: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=complex)
        if cells.ndim != 4 or cells.shape[2] != cells.shape[3]:
            raise ValueError(f"cells must be (scales, times, p, p), got {cells.shape}")
        p = cells.shape[2]
        if not 2 <= p <= 8:
            raise ValueError(f"need between 2 and 8 series, got {p}")
        if len(self.labels) != p:
            raise ValueError(f"{len(self.labels)} labels for {p} series")
        # One entry pair at a time: temporaries over the whole cell array
        # would cost several times its size.
        pairs = [(i, j) for i in range(p) for j in range(i, p)]
        herm_err = np.max([
            np.abs(cells[:, :, i, j] - np.conj(cells[:, :, j, i])).max() for i, j in pairs
        ])
        if herm_err > _HERMITIAN_TOL:
            raise ValueError(f"cells not Hermitian (max deviation {herm_err:.3g})")
        diag_err = np.max([np.abs(cells[:, :, i, i] - 1.0).max() for i in range(p)])
        if diag_err > _HERMITIAN_TOL:
            raise ValueError(f"cells lack unit diagonal (max deviation {diag_err:.3g})")
        mag = np.max([np.abs(cells[:, :, i, j]).max() for i in range(p) for j in range(p)])
        if mag > 1.0 + _UNIT_DISC_TOL:
            raise ValueError(f"coherency magnitude {mag} exceeds 1")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        for name in ("scales", "coi_outside", "degenerate"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return int(self.cells.shape[2])

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.cells.shape[0]), int(self.cells.shape[1]))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no series named {label!r}; have {self.labels}") from None


def coherence_matrix_field(
    fields: list[WaveletField] | tuple[WaveletField, ...],
    smoother: Smoother | None = None,
    labels: tuple[str, ...] | None = None,
) -> CoherenceField:
    """Assemble the coherency-matrix field from per-series wavelet fields.

    Parameters
    ----------
    fields : sequence of WaveletField
        Two to eight transforms on the same scale grid and time axis.
    smoother : callable, optional
        Maps a raw CrossSpectrumField to a smoothed one. Defaults to the
        standard separable smoother on the shared grid. The same operator is
        applied to every auto- and cross-spectrum, which is what keeps each
        cell positive semidefinite.
    labels : tuple of str, optional
        Names for the series, defaulting to series0..seriesN.

    Raises
    ------
    ValueError
        Fewer than two fields, or mismatched grids/time axes.
    """
    fields = list(fields)
    p = len(fields)
    if p < 2:
        raise ValueError(f"need at least two series, got {p}")
    if p > 8:
        raise ValueError(f"need at most eight series, got {p}")
    first = fields[0]
    for f in fields[1:]:
        if not f.grid.matches(first.grid):
            raise ValueError("wavelet fields are on different scale grids")
        if f.n_times != first.n_times or f.dt != first.dt:
            raise ValueError("wavelet fields have different time axes")
    grid, dt = first.grid, first.dt
    if smoother is None:
        smoother = lambda fld: smooth(fld, grid, dt)

    nj, nt = grid.num_scales, first.n_times
    tiny = np.finfo(float).tiny

    autos = np.empty((p, nj, nt))
    for i, f in enumerate(fields):
        autos[i] = smoother(cross_spectrum(f, f)).values.real
    degenerate = np.zeros((nj, nt), dtype=bool)
    for i in range(p):
        degenerate |= ~(autos[i] > tiny)
    denom = np.sqrt(np.clip(autos, tiny, None))

    cells = np.zeros((nj, nt, p, p), dtype=complex)
    cells[:, :, np.arange(p), np.arange(p)] = 1.0
    for i in range(p):
        for j in range(i + 1, p):
            sij = smoother(cross_spectrum(fields[i], fields[j])).values
            rho = sij / (denom[i] * denom[j])
            rho[degenerate] = 0.0
            cells[:, :, i, j] = rho
            cells[:, :, j, i] = np.conj(rho)

    if labels is None:
        labels = tuple(f"series{i}" for i in range(p))
    elif len(labels) != p:
        raise ValueError(f"{len(labels)} labels for {p} series")
    return CoherenceField(
        cells=cells,
        labels=tuple(labels),
        scales=grid.scales,
        dt=dt,
        coi_outside=first.outside_coi(),
        degenerate=degenerate,
    )


def _permute_target_first(cells: np.ndarray, target: int) -> np.ndarray:
    p = cells.shape[2]
    idx = [target] + [i for i in range(p) if i != target]
    return cells[:, :, idx, :][:, :, :, idx]


def _check_target(p: int, target: int) -> None:
    if not 0 <= target < p:
        raise ValueError(f"target index {target} out of range for {p} series")


def multiple_coherence(field: CoherenceField, target: int = 0) -> np.ndarray:
    """Squared multiple coherence of the target on all remaining series.

    Computed per cell as ``1 - det(C) / det(M)`` where M is C with the target
    row and column deleted. Cells with a numerically singular minor
    (``|det(M)| < 1e-14``) report 1. The result is clipped to [0, 1].

    Returns
    -------
    ndarray, shape (num_scales, n)
    """
    _check_target(field.p, target)
    ctt = _cofactor_grids(field.cells, target, target).real
    grid_r2, _ = _multiple_with_flags(field, ctt)
    return grid_r2


def _multiple_with_flags(
    field: CoherenceField, ctt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multiple coherence and singular-minor flags, given ``cof(C, t, t)``."""
    det_full = np.linalg.det(field.cells).real
    singular = np.abs(ctt) < _SINGULAR_MINOR_TOL
    safe = np.where(singular, 1.0, ctt)
    r2 = 1.0 - det_full / safe
    r2[singular] = 1.0
    return np.clip(r2, 0.0, 1.0), singular


def _cofactor_grids(
    cells: np.ndarray, row: int, col: int
) -> np.ndarray:
    """Signed cofactor of each (p, p) cell at (row, col), vectorized."""
    keep = np.arange(cells.shape[-1])
    minor = cells[..., np.delete(keep, row)[:, None], np.delete(keep, col)]
    return (-1.0) ** (row + col) * np.linalg.det(minor)


def partial_coherence(
    field: CoherenceField, target: int, j: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial coherency of the target with series j, all others held fixed.

    Per cell, ``rho = -cof(C, j, t) / sqrt(cof(C, t, t) * cof(C, j, j))``.
    Cells where either diagonal cofactor vanishes report rho = 0.

    Returns
    -------
    rho : ndarray, complex, shape (num_scales, n)
    r2 : ndarray, in [0, 1]
        Squared magnitude of rho, clipped.
    phase : ndarray, in (-pi, pi]
        Two-argument arctangent of rho's imaginary over real part.
    """
    p = field.p
    _check_target(p, target)
    _check_target(p, j)
    if target == j:
        raise ValueError("partial coherence needs two distinct series")
    ctt = _cofactor_grids(field.cells, target, target).real
    rho, r2, phase, _ = _partial_with_flags(field, target, j, ctt)
    return rho, r2, phase


def _partial_with_flags(
    field: CoherenceField, target: int, j: int, ctt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partial coherency of (target, j) and its flags, given ``cof(C, t, t)``."""
    cells = field.cells
    cjj = _cofactor_grids(cells, j, j).real
    cjt = _cofactor_grids(cells, j, target)
    denom_sq = ctt * cjj
    bad = denom_sq < _SINGULAR_MINOR_TOL
    denom = np.sqrt(np.where(bad, 1.0, denom_sq))
    rho = -cjt / denom
    rho[bad] = 0.0
    r2 = np.clip(np.abs(rho) ** 2, 0.0, 1.0)
    phase = np.angle(rho)
    return rho, r2, phase, bad


def multiple_from_partials(field: CoherenceField, target: int = 0) -> np.ndarray:
    """Multiple coherence via the product of nested partial coherencies.

    With the target permuted first, ``R^2 = 1 - prod_k (1 - r^2_k)`` where
    ``r^2_k`` is the squared partial coherency of the target with the k-th
    series given the ones before it, computed on the leading k x k submatrix.
    Agrees with :func:`multiple_coherence` to rounding on nondegenerate
    cells; rank-deficient factors push the product to 0, so those cells
    report 1, the same convention as the determinant form.

    Returns
    -------
    ndarray, shape (num_scales, n)
    """
    _check_target(field.p, target)
    c = _permute_target_first(field.cells, target)
    p = field.p
    prod = np.ones(field.shape)
    for k in range(2, p + 1):
        sub = c[:, :, :k, :k]
        c11 = np.linalg.det(sub[:, :, 1:, 1:]).real
        ckk = np.linalg.det(sub[:, :, : k - 1, : k - 1]).real
        ck1 = _cofactor_grids(sub, k - 1, 0)
        denom = c11 * ckk
        bad = denom < _SINGULAR_MINOR_TOL
        r2 = np.abs(ck1) ** 2 / np.where(bad, 1.0, denom)
        factor = 1.0 - np.clip(r2, 0.0, 1.0)
        factor[bad] = 1.0
        prod *= factor
    return np.clip(1.0 - prod, 0.0, 1.0)


def four_series_expansion(cell: np.ndarray) -> tuple[float, float, float]:
    """Closed-form determinant expansion for one 4 x 4 coherency cell.

    Evaluates det(C) and the target minor det(M11) directly from the six
    upper off-diagonal entries, without forming matrices, and returns them
    with the squared multiple coherence of series 0 on the other three.

    Parameters
    ----------
    cell : ndarray, complex, shape (4, 4)
        Hermitian with unit diagonal (checked to 1e-8).

    Returns
    -------
    det_full : float
        det(C); real for Hermitian input.
    det_minor : float
        det of the lower-right 3 x 3 minor.
    r2 : float
        ``1 - det_full / det_minor``, clipped to [0, 1]; 1 when the minor is
        numerically singular.

    Raises
    ------
    ValueError
        Wrong shape, non-Hermitian input, or diagonal away from one.
    """
    cell = np.asarray(cell, dtype=complex)
    if cell.shape != (4, 4):
        raise ValueError(f"expected a 4x4 cell, got shape {cell.shape}")
    if np.abs(cell - cell.conj().T).max() > _HERMITIAN_TOL:
        raise ValueError("cell is not Hermitian")
    if np.abs(np.diag(cell) - 1.0).max() > _HERMITIAN_TOL:
        raise ValueError("cell diagonal is not one")

    r12, r13, r14 = cell[0, 1], cell[0, 2], cell[0, 3]
    r23, r24, r34 = cell[1, 2], cell[1, 3], cell[2, 3]

    def a2(z: complex) -> float:
        return (z * np.conj(z)).real

    def tri(x: complex, y: complex, z: complex) -> float:
        return 2.0 * np.real(x * y * np.conj(z))

    det_minor = 1.0 - a2(r23) - a2(r24) - a2(r34) + tri(r23, r34, r24)
    det_full = (
        1.0
        - a2(r12) - a2(r13) - a2(r14) - a2(r23) - a2(r24) - a2(r34)
        + tri(r12, r23, r13)
        + tri(r12, r24, r14)
        + tri(r13, r34, r14)
        + tri(r23, r34, r24)
        + a2(r12) * a2(r34)
        + a2(r13) * a2(r24)
        + a2(r14) * a2(r23)
        - 2.0 * np.real(r12 * r23 * r34 * np.conj(r14))
        - 2.0 * np.real(r12 * r24 * np.conj(r34) * np.conj(r13))
        - 2.0 * np.real(r13 * r24 * np.conj(r14) * np.conj(r23))
    )
    if abs(det_minor) < _SINGULAR_MINOR_TOL:
        r2 = 1.0
    else:
        r2 = float(np.clip(1.0 - det_full / det_minor, 0.0, 1.0))
    return float(det_full), float(det_minor), r2


@dataclass(frozen=True)
class CoherenceResult:
    """Bundle of coherence grids for one target series.

    Attributes
    ----------
    target : int
        Index of the target series in the field.
    labels : tuple of str
    scales : ndarray
    multiple : ndarray, shape (num_scales, n), in [0, 1]
    partial_sq : dict of int to ndarray
        Squared partial coherency grid for each non-target series index.
    partial_phase : dict of int to ndarray
        Matching phase grids in (-pi, pi].
    flagged : ndarray, bool
        Cells that were degenerate or hit a singular minor anywhere.
    coi_outside : ndarray, bool
        True outside the cone of influence.
    """

    target: int
    labels: tuple[str, ...]
    scales: np.ndarray
    multiple: np.ndarray
    partial_sq: dict[int, np.ndarray]
    partial_phase: dict[int, np.ndarray]
    flagged: np.ndarray
    coi_outside: np.ndarray


def coherence_result(field: CoherenceField, target: int = 0) -> CoherenceResult:
    """Compute the full coherence bundle for one target series.

    Multiple coherence plus, for every other series j, the squared partial
    coherency and phase of (target, j) given the rest. ``flagged`` collects
    degenerate cells and singular minors from any of the computations.
    """
    _check_target(field.p, target)
    ctt = _cofactor_grids(field.cells, target, target).real
    r2, singular = _multiple_with_flags(field, ctt)
    flagged = field.degenerate | singular
    partial_sq: dict[int, np.ndarray] = {}
    partial_phase: dict[int, np.ndarray] = {}
    for j in range(field.p):
        if j == target:
            continue
        _, psq, phase, bad = _partial_with_flags(field, target, j, ctt)
        partial_sq[j] = psq
        partial_phase[j] = phase
        flagged = flagged | bad
    return CoherenceResult(
        target=target,
        labels=field.labels,
        scales=np.asarray(field.scales),
        multiple=r2,
        partial_sq=partial_sq,
        partial_phase=partial_phase,
        flagged=flagged,
        coi_outside=np.asarray(field.coi_outside),
    )
