"""Multiple and partial wavelet coherence for up to eight series.

Everything here operates on a field of small Hermitian matrices: at each
(scale, time) cell, entry (i, j) is the smoothed cross-coherency between
series i and j, with unit diagonal. The field stores only the p(p-1)/2
entries above the diagonal, so symmetry and the unit diagonal hold by
construction. Multiple coherence of a target on the remaining series and
partial coherencies with the others held fixed are cofactor identities on
that matrix.

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

from .cwt import WaveletField, cross_spectrum, smooth

_SINGULAR_MINOR_TOL = 1e-14
_UNIT_DISC_TOL = 1e-9


@dataclass(frozen=True)
class CoherenceField:
    """Grid of Hermitian unit-diagonal coherency matrices, stored packed.

    Attributes
    ----------
    pairs : ndarray, complex, shape (p * (p - 1) // 2, num_scales, n)
        Entry (i, j), i < j, of every cell, one row per pair in
        ``np.triu_indices(p, 1)`` order; magnitudes at most 1 up to rounding.
        Entry (j, i) is its conjugate and the diagonal is one.
    labels : tuple of str
        Distinct series names, one per matrix row; their number is p.
    scales : ndarray, shape (num_scales,)
    dt : float
    coi_outside : ndarray, bool, shape (num_scales, n)
        True where the cell lies outside the cone of influence.
    degenerate : ndarray, bool, shape (num_scales, n)
        True where a smoothed auto-spectrum vanished (constant input); every
        pair is 0 there, so the cell is the identity matrix.
    """

    pairs: np.ndarray
    labels: tuple[str, ...]
    scales: np.ndarray
    dt: float
    coi_outside: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        p = len(self.labels)
        if not 2 <= p <= 8:
            raise ValueError(f"need between 2 and 8 series, got {p}")
        if len(set(self.labels)) != p:
            dup = next(s for s in self.labels if self.labels.count(s) > 1)
            raise ValueError(f"duplicate series label {dup!r}")
        pairs = np.asarray(self.pairs, dtype=complex)
        if pairs.ndim != 3 or pairs.shape[0] != p * (p - 1) // 2:
            raise ValueError(f"pairs shape {pairs.shape} does not fit {p} series")
        grid = pairs.shape[1:]
        for name, shape in (("scales", grid[:1]), ("coi_outside", grid), ("degenerate", grid)):
            arr = np.asarray(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # One pair at a time into a reused grid-sized buffer; a NaN magnitude
        # fails the test, so non-finite entries are rejected too.
        modulus = np.empty(grid)
        mag = np.max([np.abs(row, out=modulus).max() for row in pairs])
        if not mag <= 1.0 + _UNIT_DISC_TOL:
            raise ValueError(f"coherency magnitude {mag} exceeds 1")
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @property
    def p(self) -> int:
        return len(self.labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pairs.shape[1:]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no series named {label!r}; have {self.labels}") from None


def coherence_matrix_field(
    fields: list[WaveletField] | tuple[WaveletField, ...],
    labels: tuple[str, ...] | None = None,
) -> CoherenceField:
    """Assemble the packed coherency field from per-series wavelet fields.

    Every auto-spectrum and every pair's cross-spectrum is smoothed by
    :func:`~comove.cwt.smooth` on the shared grid, one call per spectrum
    (p(p+1)/2 in all). The auto-spectra are float fields, smoothed as such;
    each smoothed pair is divided by their square roots straight into its
    preallocated row. The same operator is applied to every spectrum, which
    is what keeps each cell positive semidefinite.

    Parameters
    ----------
    fields : sequence of WaveletField
        Two to eight transforms on the same scale grid and time axis.
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
    if labels is None:
        labels = tuple(f"series{i}" for i in range(p))
    elif len(labels) != p:
        raise ValueError(f"{len(labels)} labels for {p} series")
    grid, dt = first.grid, first.dt
    tiny = np.finfo(float).tiny

    autos = np.empty((p, grid.num_scales, first.n_times))
    for i, f in enumerate(fields):
        autos[i] = smooth(cross_spectrum(f, f), grid, dt).values
    degenerate = ~(autos > tiny).all(axis=0)
    denom = np.sqrt(np.clip(autos, tiny, None, out=autos), out=autos)

    upper = np.triu_indices(p, 1)
    pairs = np.empty((len(upper[0]),) + autos.shape[1:], dtype=complex)
    for k, (i, j) in enumerate(zip(*upper)):
        spectrum = smooth(cross_spectrum(fields[i], fields[j]), grid, dt).values
        np.divide(spectrum, denom[i] * denom[j], out=pairs[k])
    pairs[:, degenerate] = 0.0

    return CoherenceField(
        pairs=pairs,
        labels=tuple(labels),
        scales=grid.scales,
        dt=dt,
        coi_outside=first.outside_coi(),
        degenerate=degenerate,
    )


def _solve(
    pairs: np.ndarray, p: int, target: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """Multiple and partial coherencies of the target from one LDL^H pass.

    ``pairs`` is a ``(p(p-1)/2, num_scales, n)`` stack packed the way
    :attr:`CoherenceField.pairs` is. Per scale row, only the entries above
    the diagonal are gathered, target ordered last, cells on the last axis.
    Hermitian elimination without pivoting, for ``C = L D L^H``, updates
    only entries (i, j) with i <= j: the real diagonal loses ``|c_ki|**2 /
    d_k``, formed as re**2 + im**2, and row i gains ``-conj(c_ki) / d_k``
    times row k, the multiple that also builds ``L^-1`` below its unit
    diagonal. A non-target pivot below ``_SINGULAR_MINOR_TOL`` (or not
    finite) marks the cell singular and is replaced by 1 before dividing, so
    every output stays finite.

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
    rho : list of p - 1 ndarrays, complex, shape (num_scales, n)
        Partial coherency of the target with each other series, in index
        order; 0 where ``bad``. A list, so a caller can free each grid.
    bad : ndarray, bool, shape (p - 1, num_scales, n)
        ``cof(t, t) * cof(j, j) < 1e-14``, or the cell is singular.
    """
    npairs, nj, nt = pairs.shape
    last = p - 1
    # Pair row of each entry (i, j), i < j, of a target-last cell, row by
    # row; entry (j, t) of a series j after the target is a conjugate pair.
    where = np.zeros((p, p), dtype=int)
    where[np.triu_indices(p, 1)] = np.arange(npairs)
    order = [k for k in range(p) if k != target] + [target]
    where = (where + where.T)[np.ix_(order, order)][np.triu_indices(p, 1)]
    ends = np.cumsum(np.arange(last, 0, -1))
    flip = ends[target:] - 1
    m_inv = np.empty((p, last, nt), dtype=complex)
    piv = np.empty((p, nt))
    r2 = np.empty((nj, nt))
    singular = np.empty((nj, nt), dtype=bool)
    rho = [np.empty((nj, nt), dtype=complex) for _ in range(last)]
    bad = np.empty((last, nj, nt), dtype=bool)
    for s in range(nj):
        upper = pairs[where, s]
        upper[flip] = np.conj(upper[flip])
        rows = np.split(upper, ends[:-1])  # views: row i holds entries (i, i+1 .. p-1)
        piv[:] = 1.0
        weak = np.zeros(nt, dtype=bool)
        for k in range(last):
            d = piv[k]
            w = ~(d >= _SINGULAR_MINOR_TOL)
            weak |= w
            d[w] = 1.0
            row, col = rows[k], m_inv[k + 1 :, k]  # L^-1 column k: -conj(c_ki) / d_k
            np.multiply(np.conj(row), -1.0 / d, out=col)
            piv[k + 1 :] -= (np.square(row.real) + np.square(row.imag)) / d
            for i in range(k + 1, last):
                rows[i] += col[i - k - 1] * row[i - k :]
            m_inv[k + 1 :, :k] += col[:, None] * m_inv[k, :k]
        ctt = np.prod(piv[:last], axis=0)
        sing = weak | (ctt < _SINGULAR_MINOR_TOL)
        singular[s] = sing
        r2[s] = np.where(sing, 1.0, np.clip(1.0 - piv[last], 0.0, 1.0))
        tail = 1.0 / piv[:last]
        for k in range(1, last):
            tail[:k] += (np.square(m_inv[k, :k].real) + np.square(m_inv[k, :k].imag)) / piv[k]
        row = m_inv[last]
        a = np.square(row.real) + np.square(row.imag) + piv[last] * tail
        bad_s = sing | (ctt**2 * a < _SINGULAR_MINOR_TOL)
        rho_s = row * (-1.0 / np.sqrt(np.where(bad_s, 1.0, a)))
        rho_s[bad_s] = 0.0
        for q, out in enumerate(rho):
            out[s] = rho_s[q]
        bad[:, s] = bad_s
    return r2, singular, rho, bad


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
    degenerate cells and singular minors from any of the computations: the
    multiple coherence is 1 where ``cof(C, t, t) < 1e-14``, and a partial
    is 0 where ``cof(C, t, t) * cof(C, j, j) < 1e-14``.

    Raises
    ------
    ValueError
        ``target`` is not an index into the field's series.
    """
    if not 0 <= target < field.p:
        raise ValueError(f"target index {target} out of range for {field.p} series")
    r2, singular, rho, bad = _solve(field.pairs, field.p, target)
    partial_sq, partial_phase = {}, {}
    for j in [j for j in range(field.p) if j != target]:
        z = rho.pop(0)  # freed once read, so the grids never all coexist
        partial_sq[j], partial_phase[j] = np.clip(np.abs(z) ** 2, 0.0, 1.0), np.angle(z)
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
