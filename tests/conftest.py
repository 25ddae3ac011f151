"""Shared oracles for the test suite.

The determinant oracle deliberately avoids numpy.linalg so that closed-form
determinant expansions are checked against an independent computation, not
against the same LAPACK call they might wrap. Two second routes to the
library's multiple coherence live here too: the closed-form p = 4 determinant
expansion (:func:`four_series_expansion`) and the product of nested partial
coherencies (:func:`multiple_from_partials`).
"""

import numpy as np

from comove.coherence import _SINGULAR_MINOR_TOL, CoherenceField, _solve

_HERMITIAN_TOL = 1e-8


def laplace_det(m) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    m = np.asarray(m)
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for col in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), col, axis=1)
        total += (-1.0) ** col * complex(m[0, col]) * laplace_det(minor)
    return total


def random_coherency_cell(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random Hermitian unit-diagonal PSD matrix with off-diagonals inside the unit disc.

    Normalizing a complex Gram matrix A A^H by its diagonal gives exactly this
    structure; 2p columns in A keep the matrix comfortably full rank.
    """
    a = rng.normal(size=(p, 2 * p)) + 1j * rng.normal(size=(p, 2 * p))
    gram = a @ a.conj().T
    d = np.sqrt(np.real(np.diag(gram)))
    cell = gram / np.outer(d, d)
    cell = 0.5 * (cell + cell.conj().T)
    np.fill_diagonal(cell, 1.0)
    return cell


def pack_cells(cells) -> np.ndarray:
    """Dense (..., p, p) cells in the packed ``CoherenceField.pairs`` layout.

    Keeps the entries above the diagonal, one leading row per pair in
    ``np.triu_indices(p, 1)`` order; the lower triangle and the diagonal are
    dropped, as the field does not store them.
    """
    cells = np.asarray(cells)
    i, j = np.triu_indices(cells.shape[-1], 1)
    return np.moveaxis(cells[..., i, j], -1, 0)


def multiple_from_partials(field: CoherenceField, target: int = 0) -> np.ndarray:
    """Multiple coherence via the product of nested partial coherencies.

    ``R^2 = 1 - prod_k (1 - r^2_k)`` where ``r^2_k`` is the squared partial
    coherency of the target with the k-th other series given the ones before
    it, each solved on the packed pairs among the target and the first k
    others. Agrees with ``coherence_result(field, target).multiple`` to
    rounding on nondegenerate cells. A flagged factor counts as 1 and an exactly
    dependent series makes its factor 0, so rank-deficient cells report 1,
    the same convention as the determinant form.

    Returns
    -------
    ndarray, shape (num_scales, n)
    """
    p = field.p
    pair = np.zeros((p, p), dtype=int)  # row of field.pairs holding entry (i, j), i < j
    pair[np.triu_indices(p, 1)] = np.arange(len(field.pairs))
    others = [j for j in range(p) if j != target]
    prod = np.ones(field.shape)
    for k in range(1, p):
        keep = sorted([target, *others[:k]])
        sub = field.pairs[pair[np.ix_(keep, keep)][np.triu_indices(k + 1, 1)]]
        # The k-th other series is the sub-stack's last non-target one; its
        # rho is 0 where flagged, so that factor is 1.
        rho = _solve(sub, k + 1, keep.index(target))[2][-1]
        prod *= 1.0 - np.clip(np.abs(rho) ** 2, 0.0, 1.0)
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


def dense_cells(field) -> np.ndarray:
    """A field's (num_scales, n, p, p) cells, the inverse of :func:`pack_cells`.

    The pairs go above the diagonal, their conjugates below it and ones on it.
    """
    p = field.p
    i, j = np.triu_indices(p, 1)
    upper = np.moveaxis(field.pairs, 0, -1)
    cells = np.empty(field.shape + (p, p), dtype=complex)
    cells[..., i, j] = upper
    cells[..., j, i] = np.conj(upper)
    cells[..., np.arange(p), np.arange(p)] = 1.0
    return cells


def unsmoothed_field(fields):
    """Field of the raw coherencies ``W_i conj(W_j) / (|W_i| |W_j|)``.

    Without smoothing every cell is the outer product of one unit-modulus
    vector with itself, so it has rank one.
    """
    w = np.stack([f.coeffs for f in fields])
    i, j = np.triu_indices(len(fields), 1)
    pairs = w[i] * np.conj(w[j]) / (np.abs(w[i]) * np.abs(w[j]))
    return CoherenceField(
        pairs=pairs,
        labels=tuple(f"series{k}" for k in range(len(fields))),
        scales=fields[0].grid.scales,
        dt=fields[0].dt,
        coi_outside=fields[0].outside_coi(),
        degenerate=np.zeros(pairs.shape[1:], dtype=bool),
    )
