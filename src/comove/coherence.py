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

import math
from dataclasses import dataclass

import numpy as np

from .cwt import ScaleGrid, WaveletField, smooth
from .packets import _count

_SINGULAR_MINOR_TOL = 1e-14
_UNIT_DISC_TOL = 1e-9
# A cell is degenerate where a smoothed auto-spectrum is at most this
# fraction of its scale row's maximum. The smoother's rounding error is
# absolute, a fraction eps of the row maximum: against a direct convolution
# in extended precision, eps <= 9.6e-16 over whole rows and eps <= 1.6e-16
# on cells below 1e-5 of the maximum (numpy 2.4 pocketfft; packet-noise
# variants of 1461-day random walks, three seeds). With both autos of a
# pair at least floor times their row maxima, the coherency moves by at
# most about 2 eps / floor, one eps for the cross-spectrum and one for the
# autos. So floor = 2 * 1.6e-16 / _UNIT_DISC_TOL = 3.2e-7, rounded up to
# 4e-7, keeps a copied or scaled series' coherency inside the unit disc.
_DEGENERATE_ROW_FLOOR = 4e-7


@dataclass(frozen=True)
class CoherenceField:
    """Grid of Hermitian unit-diagonal coherency matrices, stored packed.

    Attributes
    ----------
    pairs : ndarray, complex, shape (p * (p - 1) // 2, num_scales, n)
        Entry (i, j), i < j, of every cell, one row per pair in
        ``np.triu_indices(p, 1)`` order; magnitudes at most 1 up to rounding.
        Entry (j, i) is its conjugate and the diagonal is one, so the
        number of rows gives p, from 2 to 8; a stack of any other shape is
        refused.
    grid : ScaleGrid
        The time-scale plane of every pair grid, ``grid.shape == (num_scales,
        n)``; ``grid.outside_coi()`` marks the cells outside the cone of
        influence.
    degenerate : ndarray, bool, shape (num_scales, n)
        True where a smoothed auto-spectrum is at most 4e-7 of its scale
        row's maximum, or vanishes (constant input), so rounding could push
        a coherency out of the unit disc; every pair is 0 there, so the cell
        is the identity matrix.
    """

    pairs: np.ndarray
    grid: ScaleGrid
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=complex)
        object.__setattr__(self, "pairs", pairs)
        if pairs.ndim != 3 or self.p * (self.p - 1) // 2 != len(pairs) or not 2 <= self.p <= 8:
            raise ValueError(f"pairs shape {pairs.shape} is not p(p-1)/2 pair grids for p between 2 and 8")
        degenerate = np.asarray(self.degenerate)
        for name, shape in (("grid", self.grid.shape), ("degenerate", degenerate.shape)):
            if shape != pairs.shape[1:]:
                raise ValueError(f"{name} has shape {shape}, expected {pairs.shape[1:]}")
        degenerate.flags.writeable = False
        object.__setattr__(self, "degenerate", degenerate)
        # One pair at a time into a reused grid-sized buffer; a NaN magnitude
        # fails the test, so non-finite entries are rejected too.
        modulus = np.empty(self.grid.shape)
        mag = np.max([np.abs(row, out=modulus).max() for row in pairs])
        if not mag <= 1.0 + _UNIT_DISC_TOL:
            raise ValueError(f"coherency magnitude {mag} exceeds 1")
        pairs.flags.writeable = False

    @property
    def p(self) -> int:
        """The number of series, read off the p(p-1)/2 pair rows."""
        return (1 + math.isqrt(1 + 8 * len(self.pairs))) // 2


def coherence_matrix_field(
    fields: list[WaveletField] | tuple[WaveletField, ...],
) -> CoherenceField:
    """Assemble the packed coherency field from per-series wavelet fields.

    Every auto-spectrum and every pair's cross-spectrum is smoothed by
    :func:`~comove.cwt.smooth` on the shared grid, one call per spectrum
    (p(p+1)/2 in all), and the field keeps that grid. The auto-spectra are
    float fields, smoothed as such; each smoothed pair is scaled by the
    reciprocal of their square roots' product straight into its
    preallocated row. The same operator is applied to every spectrum, which
    is what keeps each cell positive semidefinite. A cell where any smoothed
    auto-spectrum is at most 4e-7 of its scale row's maximum is marked
    degenerate and set to the identity: the smoother's rounding error is a
    fraction of the row maximum, so a coherency there is not trustworthy.

    Parameters
    ----------
    fields : sequence of WaveletField
        Two to eight transforms on equal grids, in the field's series order.

    Raises
    ------
    ValueError
        Fewer than two or more than eight fields, or mismatched grids.
    """
    fields = list(fields)
    p = len(fields)
    if p < 2:
        raise ValueError(f"need at least two series, got {p}")
    if p > 8:
        raise ValueError(f"need at most eight series, got {p}")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("wavelet fields are on different grids")
    tiny = np.finfo(float).tiny

    autos = np.empty((p,) + grid.shape)
    for i, f in enumerate(fields):
        autos[i] = smooth(f, f).values
    floor = np.maximum(_DEGENERATE_ROW_FLOOR * autos.max(axis=2, keepdims=True), tiny)
    degenerate = ~(autos > floor).all(axis=0)
    denom = np.sqrt(np.clip(autos, tiny, None, out=autos), out=autos)

    upper = np.triu_indices(p, 1)
    pairs = np.empty((len(upper[0]),) + grid.shape, dtype=complex)
    for k, (i, j) in enumerate(zip(*upper)):
        spectrum = smooth(fields[i], fields[j]).values
        # numpy divides complex by real as this product with the reciprocal
        np.multiply(spectrum, 1.0 / (denom[i] * denom[j]), out=pairs[k])
    # by index, so a field without degenerate cells scans none of the pairs
    pairs.reshape(len(pairs), -1)[:, np.flatnonzero(degenerate)] = 0.0
    return CoherenceField(pairs=pairs, grid=grid, degenerate=degenerate)


def _solve(
    pairs: np.ndarray, p: int, target: int
) -> tuple[np.ndarray, dict[int, np.ndarray], dict[int, np.ndarray], np.ndarray, np.ndarray]:
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
    partial_sq, partial_phase : dict of int to ndarray, shape (num_scales, n)
        ``|rho|**2`` clipped to [0, 1] and ``angle(rho)`` for each other
        series j, written row by row; both 0 where rho is zeroed.
    singular : ndarray, bool, shape (num_scales, n)
        ``cof(t, t) < 1e-14``, or a weak pivot before the target's.
    partial_bad : ndarray, bool, shape (num_scales, n)
        ``cof(t, t) * cof(j, j) < 1e-14`` for some j. Rho is zeroed there
        for that j, and for every j on singular cells.
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
    partial_bad = np.empty((nj, nt), dtype=bool)
    partial_sq = {j: np.empty((nj, nt)) for j in order[:last]}
    partial_phase = {j: np.empty((nj, nt)) for j in order[:last]}
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
        ill = ctt**2 * a < _SINGULAR_MINOR_TOL
        partial_bad[s] = ill.any(axis=0)
        bad = sing | ill
        rho = row * (-1.0 / np.sqrt(np.where(bad, 1.0, a)))
        rho[bad] = 0.0
        sq, phase = np.clip(np.abs(rho) ** 2, 0.0, 1.0), np.angle(rho)
        for q, j in enumerate(order[:last]):
            partial_sq[j][s], partial_phase[j][s] = sq[q], phase[q]
    return r2, partial_sq, partial_phase, singular, partial_bad


@dataclass(frozen=True)
class CoherenceResult:
    """Bundle of coherence grids for one target series.

    Each grid lies on the field's time-scale plane, ``field.grid``, whose
    scales label its rows.

    Attributes
    ----------
    multiple : ndarray, shape (num_scales, n), in [0, 1]
    partial_sq : dict of int to ndarray
        Squared partial coherency grid for each non-target series index.
    partial_phase : dict of int to ndarray
        Matching phase grids in (-pi, pi].
    flagged : ndarray, bool
        Cells that were degenerate or hit a singular minor anywhere.
    coi_outside : ndarray, bool
        True outside the cone of influence, ``field.grid.outside_coi()``.
    """

    multiple: np.ndarray
    partial_sq: dict[int, np.ndarray]
    partial_phase: dict[int, np.ndarray]
    flagged: np.ndarray
    coi_outside: np.ndarray


def coherence_result(field: CoherenceField, target: int = 0) -> CoherenceResult:
    """Compute the full coherence bundle for one target series.

    Returns
    -------
    CoherenceResult
        Multiple coherence plus, for every other series j, the squared
        partial coherency and phase of (target, j) given the rest, the
        grids the solve wrote. ``flagged`` is the union of degenerate cells,
        singular ones (multiple coherence 1 where ``cof(C, t, t) < 1e-14``)
        and ill-conditioned ones (a partial is 0 where ``cof(C, t, t) *
        cof(C, j, j) < 1e-14``).

    Raises
    ------
    ValueError
        ``target`` is not an integer index into the field's series.
    """
    _count("target", target, least=0, below=field.p)
    r2, partial_sq, partial_phase, singular, partial_bad = _solve(field.pairs, field.p, target)
    return CoherenceResult(
        multiple=r2,
        partial_sq=partial_sq,
        partial_phase=partial_phase,
        flagged=field.degenerate | singular | partial_bad,
        coi_outside=field.grid.outside_coi(),
    )
