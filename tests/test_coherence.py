"""Coherency-matrix field assembly and the determinant identities on it.

Oracles come from conftest: a recursive Laplace-expansion determinant (so the
closed forms are not checked against the same LAPACK routine they could have
wrapped), the closed-form p = 4 expansion, the nested-partials product, and a
Gram-matrix generator for random valid coherency cells, which ``pack_cells``
turns into the field's packed upper-triangle layout. The complex partial
coherency rho, which ``CoherenceResult`` does not keep, is rebuilt from the
squared magnitude and phase that ``coherence._solve`` writes.
"""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    dense_cells,
    four_series_expansion,
    laplace_det,
    multiple_from_partials,
    pack_cells,
    random_coherency_cell,
    synthetic_grid,
    unsmoothed_field,
)

import comove
from comove import coherence
from comove import packets as pk
from comove.coherence import CoherenceField, coherence_matrix_field, coherence_result
from comove.cwt import cwt_morlet, make_scale_grid, smooth


def build_field(p, nj=4, nt=6, seed=0):
    rng = np.random.default_rng(seed)
    cells = np.empty((nj, nt, p, p), dtype=complex)
    for a in range(nj):
        for b in range(nt):
            cells[a, b] = random_coherency_cell(rng, p)
    return CoherenceField(
        pairs=pack_cells(cells),
        grid=synthetic_grid(nj, nt),
        degenerate=np.zeros((nj, nt), dtype=bool),
    )


def oracle_multiple(cell, target):
    p = cell.shape[0]
    idx = [target] + [i for i in range(p) if i != target]
    c = cell[np.ix_(idx, idx)]
    det_full = laplace_det(c).real
    det_minor = laplace_det(c[1:, 1:]).real
    return 1.0 - det_full / det_minor


def oracle_partial(cell, target, j):
    def cof(row, col):
        minor = np.delete(np.delete(cell, row, axis=0), col, axis=1)
        return (-1.0) ** (row + col) * laplace_det(minor)

    return -cof(j, target) / np.sqrt((cof(target, target) * cof(j, j)).real)


def solved_rho(field, target, j):
    """Complex partial coherency of the target with series j, rebuilt from the
    solve as ``sqrt(partial_sq) * exp(i * phase)``."""
    _, partial_sq, partial_phase, _, _ = coherence._solve(field.pairs, field.p, target)
    return np.sqrt(partial_sq[j]) * np.exp(1j * partial_phase[j])


# ----------------------------------------------------- determinant identities


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("target", [0, 1])
def test_multiple_matches_laplace_oracle(p, target):
    field = build_field(p, seed=p)
    got = coherence_result(field, target).multiple
    cells = dense_cells(field)
    for a in range(field.grid.shape[0]):
        for b in range(field.grid.shape[1]):
            want = oracle_multiple(cells[a, b], target)
            assert got[a, b] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("p", [3, 4])
def test_partial_matches_laplace_oracle(p):
    field = build_field(p, seed=10 + p)
    res = coherence_result(field, 0)
    rho, r2, phase = solved_rho(field, 0, p - 1), res.partial_sq[p - 1], res.partial_phase[p - 1]
    cells = dense_cells(field)
    for a in range(field.grid.shape[0]):
        for b in range(field.grid.shape[1]):
            want = oracle_partial(cells[a, b], 0, p - 1)
            assert rho[a, b] == pytest.approx(want, abs=1e-10)
            assert r2[a, b] == pytest.approx(abs(want) ** 2, abs=1e-10)
            assert phase[a, b] == pytest.approx(np.angle(want), abs=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_product_of_partials_matches_determinant_form(p):
    field = build_field(p, seed=20 + p)
    a = coherence_result(field, 0).multiple
    b = multiple_from_partials(field, 0)
    assert np.abs(a - b).max() < 1e-8


def test_multiple_is_bounded():
    field = build_field(6, seed=33)
    r2 = coherence_result(field, 3).multiple
    assert r2.min() >= 0.0 and r2.max() <= 1.0


def test_multiple_p2_reduces_to_squared_coherency():
    field = build_field(2, seed=4)
    r2 = coherence_result(field, 0).multiple
    want = np.abs(dense_cells(field)[:, :, 0, 1]) ** 2
    assert np.abs(r2 - want).max() < 1e-12


def test_partial_p2_reduces_to_plain_coherency():
    field = build_field(2, seed=5)
    rho = solved_rho(field, 0, 1)
    assert np.abs(rho - dense_cells(field)[:, :, 0, 1]).max() < 1e-12


def test_partial_swap_conjugates():
    field = build_field(4, seed=6)
    ab, ph_ab = solved_rho(field, 0, 2), coherence_result(field, 0).partial_phase[2]
    ba, ph_ba = solved_rho(field, 2, 0), coherence_result(field, 2).partial_phase[0]
    assert np.abs(ab - np.conj(ba)).max() < 1e-12
    np.testing.assert_allclose(np.abs(ph_ab), np.abs(ph_ba), atol=1e-12)


def test_results_invariant_to_series_permutation():
    field = build_field(4, seed=7)
    perm = [2, 0, 3, 1]
    cells_p = dense_cells(field)[:, :, perm, :][:, :, :, perm]
    field_p = CoherenceField(
        pairs=pack_cells(cells_p),
        grid=field.grid,
        degenerate=field.degenerate,
    )
    # target s0 sits at index 0 originally, index 1 after the permutation
    np.testing.assert_allclose(
        coherence_result(field, 0).multiple, coherence_result(field_p, 1).multiple, atol=1e-12
    )
    rho_a = solved_rho(field, 0, 3)
    rho_b = solved_rho(field_p, 1, 2)
    np.testing.assert_allclose(rho_a, rho_b, atol=1e-12)


def test_singular_minor_reports_one():
    # two perfectly coherent regressors make the minor singular
    p = 3
    cell = np.ones((p, p), dtype=complex)
    cells = np.broadcast_to(cell, (2, 2, p, p)).copy()
    field = CoherenceField(
        pairs=pack_cells(cells),
        grid=synthetic_grid(2, 2),
        degenerate=np.zeros((2, 2), dtype=bool),
    )
    res = coherence_result(field, 0)
    assert np.all(res.multiple == 1.0)
    assert np.all(multiple_from_partials(field, 0) == 1.0)
    assert res.flagged.all()
    rho, r2 = solved_rho(field, 0, 1), res.partial_sq[1]
    assert np.all(rho == 0.0) and np.all(r2 == 0.0)


def _determinant_route(cells, target):
    """The cofactor route the LDL^H solve replaced: one LAPACK determinant per
    cofactor, flags from ``|cof(t, t)| < 1e-14`` and ``cof(t, t) * cof(j, j)
    < 1e-14``. Returns the multiple R^2, the partial rho per j and the flags."""
    keep = np.arange(cells.shape[-1])

    def cof(row, col):
        minor = cells[..., np.delete(keep, row)[:, None], np.delete(keep, col)]
        return (-1.0) ** (row + col) * np.linalg.det(minor)

    ctt = cof(target, target).real
    flagged = np.abs(ctt) < 1e-14
    r2 = np.clip(1.0 - np.linalg.det(cells).real / np.where(flagged, 1.0, ctt), 0.0, 1.0)
    r2[flagged] = 1.0
    rhos = {}
    for j in keep[keep != target]:
        denom_sq = ctt * cof(j, j).real
        bad = denom_sq < 1e-14
        rhos[j] = -cof(j, target) / np.sqrt(np.where(bad, 1.0, denom_sq))
        rhos[j][bad] = 0.0
        flagged = flagged | bad
    return r2, rhos, flagged


def _near_rank_deficient_cells(rng, p, eps, nj=4, nt=64):
    """Unit-diagonal Gram cells of rank p - 2 plus eps-sized full-rank noise.

    At eps = 1e-3 this flags about 7% (p = 6) to 70% (p = 8) of the cells; at
    eps = 1e-5 every cell with p >= 3."""
    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    cols = np.concatenate([cnormal(nj, nt, p, p - 2), eps * cnormal(nj, nt, p, p)], axis=-1)
    gram = cols @ cols.conj().swapaxes(-1, -2)
    d = np.sqrt(np.einsum("...ii->...i", gram).real)
    cells = gram / (d[..., :, None] * d[..., None, :])
    cells = 0.5 * (cells + cells.conj().swapaxes(-1, -2))
    cells[..., np.arange(p), np.arange(p)] = 1.0
    return cells


@pytest.mark.parametrize("p", range(2, 9))
@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-5])
def test_solve_matches_determinant_route(p, eps):
    rng = np.random.default_rng([p, int(-np.log10(eps))])
    base = _near_rank_deficient_cells(rng, p, eps)
    for target in range(p):
        cells = base.copy()
        if p >= 3:
            # one cell whose two non-target series are collinear
            a, b = [i for i in range(p) if i != target][:2]
            v = rng.normal(size=(p, 2 * p)) + 1j * rng.normal(size=(p, 2 * p))
            v[b] = np.exp(0.7j) * v[a]
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            cells[0, 0] = v @ v.conj().T
            cells[0, 0][np.arange(p), np.arange(p)] = 1.0
        field = CoherenceField(**_field_kwargs(cells))
        r2_old, rho_old, flagged_old = _determinant_route(dense_cells(field), target)
        res = coherence_result(field, target)
        assert np.array_equal(res.flagged, flagged_old)
        if p >= 3:
            assert res.flagged[0, 0]
        ok = ~res.flagged
        assert np.isfinite(res.multiple).all()
        assert np.abs(res.multiple - r2_old)[ok].max(initial=0.0) <= 1e-8
        for j, want in rho_old.items():
            rho, r2, phase = solved_rho(field, target, j), res.partial_sq[j], res.partial_phase[j]
            assert np.isfinite(rho).all() and np.isfinite(r2).all() and np.isfinite(phase).all()
            assert np.abs(rho - want)[ok].max(initial=0.0) <= 1e-8


def _nested_determinant_route(cells, target):
    """The determinant route ``multiple_from_partials`` used before it solved
    packed sub-fields: the target permuted first, and each nested factor from
    three LAPACK determinants on the leading k x k block, flagged where
    ``cof(0, 0) * cof(k - 1, k - 1) < 1e-14`` and then counted as 1."""
    p = cells.shape[-1]
    idx = [target] + [i for i in range(p) if i != target]
    c = cells[..., idx, :][..., :, idx]
    prod = np.ones(cells.shape[:2])
    for k in range(2, p + 1):
        sub = c[..., :k, :k]
        c11 = np.linalg.det(sub[..., 1:, 1:]).real
        ckk = np.linalg.det(sub[..., : k - 1, : k - 1]).real
        ck1 = (-1.0) ** (k - 1) * np.linalg.det(sub[..., : k - 1, 1:])
        denom = c11 * ckk
        bad = denom < 1e-14
        factor = 1.0 - np.clip(np.abs(ck1) ** 2 / np.where(bad, 1.0, denom), 0.0, 1.0)
        factor[bad] = 1.0
        prod *= factor
    return np.clip(1.0 - prod, 0.0, 1.0)


@pytest.mark.parametrize("p", range(2, 9))
def test_nested_partials_match_determinant_route(p):
    rng = np.random.default_rng([23, p])
    cells = _near_rank_deficient_cells(rng, p, 1.0)
    # about a quarter of the cells exactly rank deficient: Gram cells of rank
    # 1 .. p - 1 with unit rows
    for a, b in zip(*np.nonzero(rng.random(cells.shape[:2]) < 0.25)):
        r = rng.integers(1, p)
        v = rng.normal(size=(p, r)) + 1j * rng.normal(size=(p, r))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cells[a, b] = v @ v.conj().T
        cells[a, b][np.arange(p), np.arange(p)] = 1.0
    field = CoherenceField(**_field_kwargs(cells))
    cells = dense_cells(field)
    for target in range(p):
        want = _nested_determinant_route(cells, target)
        assert np.abs(multiple_from_partials(field, target) - want).max() <= 1e-10


# ----------------------------------------------------- four-series expansion


def test_four_series_expansion_matches_laplace():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        cell = random_coherency_cell(rng, 4)
        det_full, det_minor, r2 = four_series_expansion(cell)
        want_full = laplace_det(cell).real
        want_minor = laplace_det(cell[1:, 1:]).real
        worst = max(worst, abs(det_full - want_full), abs(det_minor - want_minor))
        assert r2 == pytest.approx(
            np.clip(1.0 - want_full / want_minor, 0.0, 1.0), abs=1e-10
        )
    assert worst < 1e-12


def test_four_series_expansion_agrees_with_field_form():
    field = build_field(4, seed=8)
    r2_field = coherence_result(field, 0).multiple
    cells = dense_cells(field)
    for a in range(field.grid.shape[0]):
        for b in range(field.grid.shape[1]):
            _, _, r2 = four_series_expansion(cells[a, b])
            assert r2 == pytest.approx(r2_field[a, b], abs=1e-12)


def test_four_series_expansion_rank_one_cell():
    cell = np.ones((4, 4), dtype=complex)
    det_full, det_minor, r2 = four_series_expansion(cell)
    assert det_full == pytest.approx(0.0, abs=1e-14)
    assert det_minor == pytest.approx(0.0, abs=1e-14)
    assert r2 == 1.0


@pytest.mark.parametrize(
    "cell,msg",
    [
        (np.eye(3, dtype=complex), "4x4"),
        (np.eye(4, dtype=complex) + 0.5j * np.eye(4, 4, 1), "not Hermitian"),
        (2.0 * np.eye(4, dtype=complex), "diagonal is not one"),
    ],
)
def test_four_series_expansion_error_contracts(cell, msg):
    with pytest.raises(ValueError, match=msg):
        four_series_expansion(cell)


# ----------------------------------------------------- field construction


def _wavelet_fields(n, columns, dt=1.0):
    grid = make_scale_grid(n, dt)
    return [cwt_morlet(c, dt, grid) for c in columns]


def test_matrix_field_from_signals():
    rng = np.random.default_rng(11)
    cols = [rng.normal(size=200) for _ in range(3)]
    field = coherence_matrix_field(_wavelet_fields(200, cols))
    assert field.p == 3
    cells = dense_cells(field)
    assert cells.shape[2:] == (3, 3)
    assert not field.degenerate.any()
    # valid coherency structure comes from the shared smoother
    assert np.abs(cells).max() <= 1.0 + 1e-9


def test_matrix_field_identity_smoother_gives_unit_coherence():
    # without smoothing every cell is rank one and coherence is identically 1
    rng = np.random.default_rng(13)
    cols = [rng.normal(size=64) for _ in range(2)]
    field = unsmoothed_field(_wavelet_fields(64, cols))
    r2 = coherence_result(field, 0).multiple
    np.testing.assert_allclose(r2, 1.0, atol=1e-9)


def test_matrix_field_constant_series_is_degenerate():
    # 0.1 and 7.77 have means that round away from c: still every cell degenerate
    rng = np.random.default_rng(14)
    for c, n in [(3.0, 64), (0.1, 300), (7.77, 61)]:
        cols = [np.full(n, c), rng.normal(size=n)]
        field = coherence_matrix_field(_wavelet_fields(n, cols))
        assert field.degenerate.all()
        assert np.abs(dense_cells(field) - np.eye(2)).max() == 0.0
        assert coherence_result(field, 0).flagged.all()


def test_matrix_field_needs_two_series():
    f = cwt_morlet(np.random.default_rng(1).normal(size=64), 1.0, make_scale_grid(64, 1.0))
    with pytest.raises(ValueError, match="at least two"):
        coherence_matrix_field([f])


def test_matrix_field_caps_at_eight_series():
    rng = np.random.default_rng(15)
    fields = _wavelet_fields(64, [rng.normal(size=64) for _ in range(9)])
    with pytest.raises(ValueError, match="at most eight"):
        coherence_matrix_field(fields)


def test_matrix_field_rejects_mixed_lengths():
    rng = np.random.default_rng(16)
    a = cwt_morlet(rng.normal(size=64), 1.0, make_scale_grid(64, 1.0))
    b = cwt_morlet(rng.normal(size=100), 1.0, make_scale_grid(100, 1.0))
    with pytest.raises(ValueError, match="different grids"):
        coherence_matrix_field([a, b])


@pytest.mark.parametrize("n,dt", [(100, 1.0), (64, 2.0)], ids=["length", "step"])
def test_matrix_field_rejects_mixed_time_axes(n, dt):
    # each field on its own grid, both with one set of scales, so only the
    # time axes tell the fields apart
    rng = np.random.default_rng(17)
    grid = make_scale_grid(64, 1.0)
    a = cwt_morlet(rng.normal(size=64), 1.0, grid)
    b = cwt_morlet(rng.normal(size=n), dt, replace(grid, n=n, dt=dt))
    with pytest.raises(ValueError, match="^wavelet fields are on different grids$"):
        coherence_matrix_field([a, b])


def _dense_assembly(fields):
    """The per-pair dense assembly the packed field replaced: each smoothed
    pair, normalised, and its conjugate scattered into (scales, n, p, p)."""
    p = len(fields)
    tiny = np.finfo(float).tiny
    autos = np.array([smooth(f, f).values for f in fields])
    floor = np.maximum(coherence._DEGENERATE_ROW_FLOOR * autos.max(axis=2, keepdims=True), tiny)
    degenerate = ~(autos > floor).all(axis=0)
    denom = np.sqrt(np.clip(autos, tiny, None))
    cells = np.zeros(autos.shape[1:] + (p, p), dtype=complex)
    cells[:, :, np.arange(p), np.arange(p)] = 1.0
    for i in range(p):
        for j in range(i + 1, p):
            sij = smooth(fields[i], fields[j]).values
            rho = sij / (denom[i] * denom[j])
            rho[degenerate] = 0.0
            cells[:, :, i, j] = rho
            cells[:, :, j, i] = np.conj(rho)
    return cells


@pytest.mark.parametrize("p", [2, 3, 6])
def test_packed_assembly_matches_dense_assembly(p, monkeypatch):
    rng = np.random.default_rng([19, p])
    n = 300
    common = np.cumsum(rng.normal(size=n))
    cols = [rng.uniform(0.2, 1.0) * common + np.cumsum(rng.normal(size=n)) for _ in range(p)]
    fields = _wavelet_fields(n, cols)
    calls = []
    monkeypatch.setattr(
        coherence, "smooth", lambda *args: calls.append(1) or smooth(*args)
    )
    field = coherence_matrix_field(fields)
    assert len(calls) == p * (p + 1) // 2  # one smoothing call per spectrum
    cells = dense_cells(field)
    assert field.pairs.shape == (p * (p - 1) // 2,) + field.grid.shape
    assert np.array_equal(cells, _dense_assembly(fields))
    assert np.array_equal(cells, np.conj(np.swapaxes(cells, -1, -2)))
    assert np.all(np.diagonal(cells, axis1=-2, axis2=-1) == 1.0)
    assert not field.pairs.flags.writeable


# ----------------------------------------------------- CoherenceField checks


def _field_kwargs(cells):
    nj, nt = cells.shape[:2]
    return dict(
        pairs=pack_cells(cells),
        grid=synthetic_grid(nj, nt),
        degenerate=np.zeros((nj, nt), dtype=bool),
    )


def test_field_rejects_coherency_above_one():
    cells = np.zeros((1, 1, 2, 2), dtype=complex)
    cells[0, 0] = [[1.0, 1.5], [1.5, 1.0]]
    with pytest.raises(ValueError, match="exceeds 1"):
        CoherenceField(**_field_kwargs(cells))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 0.5)])
def test_field_rejects_non_finite_cells(value):
    rng = np.random.default_rng(31)
    cells = dense_cells(build_field(4, seed=31)).copy()
    a, b = rng.integers(cells.shape[0]), rng.integers(cells.shape[1])
    i, j = rng.choice(4, size=2, replace=False)
    cells[a, b, i, j] = value
    cells[a, b, j, i] = np.conj(value)
    with pytest.raises(ValueError, match="exceeds 1"):
        CoherenceField(**_field_kwargs(cells))


@pytest.mark.parametrize("factor,accepted", [(0.99, True), (1.01, False)])
@pytest.mark.parametrize("kind", ["disc-upper", "disc-lower"])
def test_field_checks_sit_at_their_tolerances(kind, factor, accepted):
    # One seeded entry, and its conjugate across the diagonal, moved to
    # `factor` times the 1e-9 tolerance past the unit disc.
    rng = np.random.default_rng(37)
    cells = dense_cells(build_field(4, seed=37)).copy()
    a, b = rng.integers(cells.shape[0]), rng.integers(cells.shape[1])
    i, j = sorted(rng.choice(4, size=2, replace=False))
    if kind == "disc-lower":
        i, j = j, i
    phase = np.exp(2j * np.pi * rng.random())
    cells[a, b, i, j] = (1.0 + factor * 1e-9) * phase
    cells[a, b, j, i] = np.conj(cells[a, b, i, j])
    if accepted:
        CoherenceField(**_field_kwargs(cells))
    else:
        with pytest.raises(ValueError, match="exceeds 1"):
            CoherenceField(**_field_kwargs(cells))


@pytest.mark.parametrize(
    "name,shape",
    [("grid", (1, 6)), ("grid", (4, 7)),
     ("degenerate", (1, 6)), ("degenerate", (4, 7)), ("degenerate", (6, 4))],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_field_rejects_mismatched_grid_shapes(name, shape):
    # A (1, n) mask on a 4-row field would broadcast over every row, and a
    # one-scale grid would label four rows; both must be refused.
    rng = np.random.default_rng(43)
    kwargs = _field_kwargs(dense_cells(build_field(3, seed=43)))
    kwargs[name] = rng.random(shape) < 0.5 if name == "degenerate" else synthetic_grid(*shape)
    with pytest.raises(ValueError, match=f"{name} has shape"):
        CoherenceField(**kwargs)


def test_field_rejects_pairs_of_the_wrong_count():
    # the field reads p off its p(p-1)/2 pair rows: no p gives 2 or 4 rows,
    # 0 rows is one series and 36 rows is nine
    kwargs = _field_kwargs(dense_cells(build_field(4, seed=44)))
    for rows in (0, 2, 4, 36):
        kwargs["pairs"] = np.zeros((rows,) + kwargs["grid"].shape, dtype=complex)
        message = rf"^pairs shape \({rows}, 4, 6\) is not p\(p-1\)/2 pair grids for p between 2 and 8$"
        with pytest.raises(ValueError, match=message):
            CoherenceField(**kwargs)


def test_field_rejects_single_series():
    cells = np.ones((1, 1, 1, 1), dtype=complex)
    with pytest.raises(ValueError, match="between 2 and 8"):
        CoherenceField(**_field_kwargs(cells))


def test_target_out_of_range():
    field = build_field(3, seed=9)
    with pytest.raises(ValueError, match=r"^target must be an integer index below 3, got 3$"):
        coherence_result(field, 3)
    with pytest.raises(ValueError, match=r"^target must be an integer index below 3, got -1$"):
        coherence_result(field, -1)


# ----------------------------------------------------- result bundle


def test_coherence_result_bundle():
    field = build_field(4, seed=18)
    res = coherence_result(field, 1)
    assert sorted(res.partial_sq) == [0, 2, 3]
    assert sorted(res.partial_phase) == [0, 2, 3]
    np.testing.assert_allclose(res.multiple, coherence._solve(field.pairs, 4, 1)[0], atol=0)
    assert res.flagged.dtype == bool
    assert not res.flagged.any()


def test_coherence_result_allocates_no_full_size_temporaries():
    # The solve writes each row of every result grid in place, so the peak
    # traced allocation stays near the bytes the result holds.
    rng = np.random.default_rng([26, 4])
    field = coherence_matrix_field(_wavelet_fields(1024, np.cumsum(rng.normal(size=(4, 1024)), axis=1)))
    tracemalloc.start()
    try:
        res = coherence_result(field, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grids = [res.multiple, res.flagged, *res.partial_sq.values(), *res.partial_phase.values()]
    assert peak <= 1.25 * sum(g.nbytes for g in grids)


def _coherence_of_walk(scale):
    """The field and every target's result for a seeded 1461 x 4 walk whose
    column 2 is multiplied by ``scale``."""
    x = np.cumsum(np.random.default_rng([40, 4]).standard_normal((1461, 4)), axis=0)
    x[:, 2] *= scale
    field = coherence_matrix_field(_wavelet_fields(1461, x.T))
    return field, [coherence_result(field, t) for t in range(4)]


@pytest.fixture(scope="module")
def unscaled_walk():
    return _coherence_of_walk(1.0)


@pytest.mark.parametrize("k", [17, -17, 40, -40, 200, -200])
def test_power_of_two_rescaling_leaves_coherence_bit_identical(k, unscaled_walk):
    # 2**k multiplies a transform, its cross-spectra, its smoothed auto-spectra'
    # square roots and the degenerate floor exactly, so nothing may move
    field, results = _coherence_of_walk(2.0**k)
    ref_field, ref_results = unscaled_walk
    assert np.array_equal(field.pairs, ref_field.pairs)
    assert np.array_equal(field.degenerate, ref_field.degenerate)
    for res, ref in zip(results, ref_results):
        assert np.array_equal(res.multiple, ref.multiple)
        assert np.array_equal(res.flagged, ref.flagged)
        assert sorted(res.partial_sq) == sorted(ref.partial_sq)
        for j in ref.partial_sq:
            assert np.array_equal(res.partial_sq[j], ref.partial_sq[j])
            assert np.array_equal(res.partial_phase[j], ref.partial_phase[j])


# ----------------------------------------------------- package exports


def test_all_lists_the_public_imports():
    names = {k for k, v in vars(comove).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert comove.__all__ == sorted(set(comove.__all__))
    assert set(comove.__all__) == names


@pytest.mark.parametrize("kind", ["copy", "scaled", "shifted", "perturbed"])
def test_appended_copy_of_a_packet_noise_series_is_flagged(kind):
    # Price walks as in the benchmark's generator, one column appended,
    # then each column's packet noise variant (the pipeline's): its smoothed
    # autos sit far below their row maxima at large scales, where rounding
    # once pushed the copy's coherency with s0 past 1.
    n = 1024
    rng = np.random.default_rng([1, 3])
    prices = np.exp(np.log(100.0) + np.cumsum(0.01 * rng.standard_normal((n, 3)), axis=0))
    s0 = prices[:, 0]
    extra = {"copy": s0, "scaled": 2.0 * s0, "shifted": s0 + 1.0,
             "perturbed": s0 * (1.0 + 1e-12 * rng.standard_normal(n))}[kind]
    noise = [pk.reconstruct_node(pk.wpt_forward(x, level=4), (1,) * 4) for x in (*prices.T, extra)]
    fields = _wavelet_fields(n, noise)
    field = coherence_matrix_field(fields)
    res = coherence_result(field, 0)
    last = len(fields) - 1
    s00, sxx = (smooth(f, f).values for f in (fields[0], fields[last]))
    s0x = smooth(fields[0], fields[last]).values
    outside = np.abs(s0x) > (1.0 + coherence._UNIT_DISC_TOL) * np.sqrt(s00 * sxx)
    assert outside.any()
    assert field.degenerate[outside].all() and res.flagged[field.degenerate].all()
