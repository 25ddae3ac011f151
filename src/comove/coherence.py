"""Multiple and partial wavelet coherence for up to eight series.

Everything here operates on a field of small Hermitian matrices: at each
(scale, time) cell, entry (i, j) is the smoothed cross-coherency between
series i and j, with unit diagonal. Multiple coherence of a target on the
remaining series and partial coherencies with the others held fixed are
cofactor identities on that matrix; the closed-form four-series expansion
writes one of them out by hand.

Conventions: the squared multiple coherence is ``1 - det(C) / cof(C, t, t)``,
where ``cof(C, t, t)`` is the determinant of C with the target row and column
deleted, and the partial coherency of target t with series j given the rest
is ``-cof(C, j, t) / sqrt(cof(C, t, t) * cof(C, j, j))`` with signed
cofactors. Both are invariant to how the non-target series are ordered.

All of them come from one LDL^H factorization per cell, run vectorized over
each scale row with the target ordered last: the last pivot is
``det(C) / cof(C, t, t)`` and the last row of ``L^-1`` gives every partial.
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
        # One scale row at a time into two reused row-sized buffers: each
        # entry is read once from a contiguous block (per-entry slices of the
        # whole array are strided reads, temporaries over it several times its
        # size). Each test is written so that a NaN deviation fails it; inf -
        # inf is such a NaN, hence the errstate.
        herm, diag, mags = [], [], []
        dev = np.empty(cells.shape[1:], dtype=complex)
        modulus = np.empty(cells.shape[1:])
        with np.errstate(invalid="ignore"):
            for row in cells:
                np.subtract(row, np.conj(np.swapaxes(row, 1, 2), out=dev), out=dev)
                herm.append(np.abs(dev, out=modulus).max())
                diag.append(np.abs(np.diagonal(row, axis1=1, axis2=2) - 1.0).max())
                mags.append(np.abs(row, out=modulus).max())
        herm_err, diag_err, mag = np.max(herm), np.max(diag), np.max(mags)
        if not herm_err <= _HERMITIAN_TOL:
            raise ValueError(f"cells not Hermitian (max deviation {herm_err:.3g})")
        if not diag_err <= _HERMITIAN_TOL:
            raise ValueError(f"cells lack unit diagonal (max deviation {diag_err:.3g})")
        if not mag <= 1.0 + _UNIT_DISC_TOL:
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


def _solve(
    field: CoherenceField, target: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multiple and partial coherencies of the target from one LDL^H pass.

    Per scale row, the cells are permuted so the target comes last and laid
    out as a ``(p, 2p, n)`` array ``[C | I]`` with cells on the last axis.
    Elimination without pivoting, one broadcast rank-1 update per step, leaves
    ``D L^H`` in its upper triangle and ``L^-1`` on the right, for ``C = L D
    L^H``. A non-target pivot below
    ``_SINGULAR_MINOR_TOL`` (or not finite) marks the cell singular and is
    replaced by 1 before dividing, so every output stays finite.

    With ``M = L^-1`` and pivots ``d``: ``cof(t, t) = prod(d[:-1])``, the
    squared multiple coherence is ``1 - d[-1]``, and for each other series j
    ``rho = -M[-1, j] / sqrt(a_j)`` with ``a_j = |M[-1, j]|**2 + d[-1] *
    sum_{j <= k < p-1} |M[k, j]|**2 / d[k]``, because ``cof(j, j) = cof(t, t)
    * a_j``. ``rho`` stays finite when det(C) vanishes.

    Returns
    -------
    r2 : ndarray, shape (num_scales, n)
        Squared multiple coherence, clipped to [0, 1]; 1 on singular cells.
    singular : ndarray, bool, shape (num_scales, n)
        ``cof(t, t) < 1e-14``, or a weak pivot before the target's.
    rho : ndarray, complex, shape (p - 1, num_scales, n)
        Partial coherency of the target with each other series, in index
        order; 0 where ``bad``.
    bad : ndarray, bool, shape (p - 1, num_scales, n)
        ``cof(t, t) * cof(j, j) < 1e-14``, or the cell is singular.
    """
    cells = field.cells
    nj, nt, p, _ = cells.shape
    last = p - 1
    order = np.array([i for i in range(p) if i != target] + [target])
    r2 = np.empty((nj, nt))
    singular = np.empty((nj, nt), dtype=bool)
    rho = np.empty((last, nj, nt), dtype=complex)
    bad = np.empty((last, nj, nt), dtype=bool)
    aug = np.empty((p, 2 * p, nt), dtype=complex)
    piv = np.empty((p, nt))
    for s in range(nj):
        aug[:, :p] = cells[s][:, order[:, None], order].transpose(1, 2, 0)
        aug[:, p:] = 0.0
        aug[np.arange(p), p + np.arange(p)] = 1.0
        weak = np.zeros(nt, dtype=bool)
        for k in range(p):
            d = aug[k, k].real.copy()
            if k < last:
                w = ~(d >= _SINGULAR_MINOR_TOL)
                weak |= w
                d[w] = 1.0
                # Row k matters only in columns k+1 .. p+k: the ones left of
                # them are eliminated, and L^-1 is lower triangular.
                span = slice(k + 1, p + k + 1)
                aug[k + 1 :, span] -= (aug[k + 1 :, k] / d)[:, None] * aug[k, span]
            piv[k] = d
        m_inv = aug[:, p:]
        ctt = np.prod(piv[:last], axis=0)
        sing = weak | (ctt < _SINGULAR_MINOR_TOL)
        singular[s] = sing
        r2[s] = np.where(sing, 1.0, np.clip(1.0 - piv[last], 0.0, 1.0))
        row = m_inv[last, :last]
        tail = (np.abs(m_inv[:last, :last]) ** 2 / piv[:last, None]).sum(axis=0)
        a = np.abs(row) ** 2 + piv[last] * tail
        bad_s = sing | (ctt**2 * a < _SINGULAR_MINOR_TOL)
        rho_s = -row / np.sqrt(np.where(bad_s, 1.0, a))
        rho_s[bad_s] = 0.0
        rho[:, s] = rho_s
        bad[:, s] = bad_s
    return r2, singular, rho, bad


def multiple_coherence(field: CoherenceField, target: int = 0) -> np.ndarray:
    """Squared multiple coherence of the target on all remaining series.

    Computed per cell as ``1 - det(C) / cof(C, t, t)``, the last pivot of an
    LDL^H factorization with the target ordered last. Cells whose target
    cofactor is numerically singular (``cof(C, t, t) < 1e-14``) report 1. The
    result is clipped to [0, 1].

    Returns
    -------
    ndarray, shape (num_scales, n)
    """
    _check_target(field.p, target)
    return _solve(field, target)[0]


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
    Cells where ``cof(C, t, t) * cof(C, j, j) < 1e-14`` report rho = 0.

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
    rho = _solve(field, target)[2][j if j < target else j - 1]
    return rho, np.clip(np.abs(rho) ** 2, 0.0, 1.0), np.angle(rho)


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
    r2, singular, rho, bad = _solve(field, target)
    others = [j for j in range(field.p) if j != target]
    partial_sq = {j: np.clip(np.abs(rho[q]) ** 2, 0.0, 1.0) for q, j in enumerate(others)}
    partial_phase = {j: np.angle(rho[q]) for q, j in enumerate(others)}
    flagged = field.degenerate | singular | bad.any(axis=0)
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
