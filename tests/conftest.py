"""Shared oracles for the test suite.

The determinant oracle deliberately avoids numpy.linalg so that closed-form
determinant expansions in the package are checked against an independent
computation, not against the same LAPACK call they might wrap.
"""

import numpy as np


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
    from comove.coherence import CoherenceField

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
