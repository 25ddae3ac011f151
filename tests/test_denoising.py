"""Shrinkage rules, threshold selectors, fidelity scoring, the method sweep."""

import numpy as np
import pytest
from conftest import assert_no_reference_cycles

from comove.denoising import (
    CONVENTIONAL_RULE,
    METHODS,
    SELECTORS,
    canonical_method,
    denoise,
    method_sweep,
    sweep_max_level,
)
from comove.denoising import _fidelities, _mad_sigma, _shrink, _shrink_and_invert, _sparsity_bound, _thresholds
from comove.packets import _dwt, _idwt, max_level, wpt_forward


def threshold_row(method, *detail_levels, n=None):
    """``method``'s row of the threshold table for raw detail levels (finest
    first) of an n-sample signal, by default twice the finest level's size."""
    details = [np.asarray(d, dtype=float) for d in detail_levels]
    return _thresholds([method], details, 2 * details[0].size if n is None else n)[0]


def mad(d):
    return _mad_sigma(np.sort(np.abs(d)))


def unit_mad(d):
    """``d`` rescaled so that its MAD noise estimate is 1, up to rounding."""
    return d * (0.6745 / np.median(np.abs(d)))


def snr_db(reference, estimate):
    return 10.0 * np.log10(np.sum(reference**2) / np.sum((reference - estimate) ** 2))


def sure_oracle(y):
    """Brute-force SURE-minimizing threshold for unit-variance data."""
    n = y.size
    best_t, best_risk = None, np.inf
    for t in np.sort(np.abs(y)):
        risk = n - 2.0 * np.sum(np.abs(y) <= t) + np.sum(np.minimum(np.abs(y), t) ** 2)
        if risk < best_risk:
            best_t, best_risk = t, risk
    return best_t


def gcv_oracle(w):
    """Brute-force GCV-minimizing threshold."""
    n = w.size
    best_t, best_score = None, np.inf
    for t in np.sort(np.abs(w)):
        resid = np.sum(np.minimum(np.abs(w), t) ** 2) / n
        k = np.sum(np.abs(w) <= t)
        score = resid / (k / n) ** 2
        if score < best_score:
            best_t, best_score = t, score
    return best_t


def _sort_once_per_call_sure(y):
    ay = np.sort(np.abs(y))
    n = ay.size
    k = np.arange(1, n + 1)
    return float(ay[int(np.argmin(n - 2.0 * k + np.cumsum(ay**2) + (n - k) * ay**2))])


def _sort_once_per_call_gcv(w):
    aw = np.sort(np.abs(w))
    n = aw.size
    k = np.arange(1, n + 1)
    return float(aw[int(np.argmin((np.cumsum(aw**2) + (n - k) * aw**2) / n / (k / n) ** 2))])


def threshold_oracle(details, n, method):
    """The selectors as they read before the sorts were shared: each call
    sorts its own ``np.abs(d / s)`` and the MAD takes ``np.median``."""
    details = [np.asarray(d, dtype=float) for d in details]

    def sigma_at(j):
        return float(np.median(np.abs(details[j])) / 0.6745)

    s_g = sigma_at(0)
    if method in ("Universal", "VisuShrink"):
        return s_g * float(np.sqrt(2.0 * np.log(n)))
    if method in ("UniversalLevel", "VisuShrinkLevel"):
        return [sigma_at(j) * float(np.sqrt(2.0 * np.log(d.size))) for j, d in enumerate(details)]
    if method == "SURE":
        return 0.0 if s_g == 0.0 else s_g * _sort_once_per_call_sure(np.concatenate(details) / s_g)
    if method == "SURELevel":
        return [
            0.0 if sigma_at(j) == 0.0 else sigma_at(j) * _sort_once_per_call_sure(d / sigma_at(j))
            for j, d in enumerate(details)
        ]
    if method == "SUREShrink":
        out = []
        for d in details:
            n_j = d.size
            universal = float(np.sqrt(2.0 * np.log(n_j)))
            if s_g == 0.0:
                out.append(0.0)
                continue
            y = d / s_g
            sparse = (float(np.sum(y**2)) - n_j) / n_j <= float(np.log2(n_j) ** 1.5 / np.sqrt(n_j))
            out.append(s_g * (universal if sparse else min(_sort_once_per_call_sure(y), universal)))
        return out
    if method == "GCV":
        return _sort_once_per_call_gcv(np.concatenate(details))
    return [_sort_once_per_call_gcv(d) if np.any(d) else 0.0 for d in details]


# ---------------------------------------------------------------- names


def test_canonical_method_is_forgiving():
    assert canonical_method("sure") == "SURE"
    assert canonical_method("UNIVERSAL") == "Universal"
    assert canonical_method("visushrink") == "VisuShrink"
    assert canonical_method("sure_shrink") == "SUREShrink"
    assert canonical_method("gcv-level") == "GCVLevel"


def test_canonical_method_unknown():
    with pytest.raises(ValueError, match="unknown method"):
        canonical_method("magic")


# ---------------------------------------------------------------- sigma


def test_noise_sigma_mad_exact():
    # |d| has median exactly 0.6745, so the MAD estimate is exactly 1
    d = np.array([-0.6745, 0.6745, -0.6745, 0.6745, 0.1, -0.1, 2.0, -2.0])
    assert mad(d) == pytest.approx(1.0, abs=1e-12)


def test_noise_sigma_scales_linearly():
    rng = np.random.default_rng(0)
    d = rng.normal(size=512)
    assert mad(3.0 * d) == pytest.approx(3.0 * mad(d), rel=1e-12)


def test_noise_sigma_needs_enough_coefficients():
    with pytest.raises(ValueError, match="at least 8"):
        mad(np.ones(7))


# ---------------------------------------------------------------- shrinkage


def test_shrinkage_rules_frozen_vector():
    w = np.array([-3.0, -2.0, -1.5, 0.0, 1.5, 2.0, 3.0])
    np.testing.assert_allclose(
        _shrink(w, 2.0, "hard"), [-3, 0, 0, 0, 0, 0, 3], atol=1e-15
    )
    np.testing.assert_allclose(
        _shrink(w, 2.0, "soft"), [-1, 0, 0, 0, 0, 0, 1], atol=1e-15
    )
    np.testing.assert_allclose(
        _shrink(w, 2.0, "garrote"),
        [-5.0 / 3.0, 0, 0, 0, 0, 0, 5.0 / 3.0],
        atol=1e-15,
    )


def test_shrinkage_worked_examples():
    five = np.array([5.0])
    assert _shrink(five, 2.0, "soft")[0] == pytest.approx(3.0, abs=1e-12)
    assert _shrink(five, 2.0, "garrote")[0] == pytest.approx(4.2, abs=1e-12)
    assert _shrink(five, 2.0, "hard")[0] == 5.0
    assert _shrink(np.array([1.0]), 2.0, "soft")[0] == 0.0


def test_shrinkage_zeroes_the_boundary():
    for rule in ("hard", "soft", "garrote"):
        assert _shrink(np.array([2.0, -2.0]), 2.0, rule).tolist() == [0.0, 0.0]


def test_shrinkage_zero_threshold_is_identity():
    w = np.array([-1.5, 0.0, 2.5])
    for rule in ("hard", "soft", "garrote"):
        np.testing.assert_allclose(_shrink(w, 0.0, rule), w, atol=1e-15)


def test_garrote_handles_zero_without_warning():
    with np.errstate(all="raise"):
        out = _shrink(np.array([0.0, 5.0]), 2.0, "garrote")
    np.testing.assert_allclose(out, [0.0, 4.2], atol=1e-12)


def test_shrinkage_error_contracts():
    with pytest.raises(ValueError, match="unknown rule"):
        _shrink(np.ones(3), 1.0, "medium")


@pytest.mark.parametrize("rule", ["hard", "soft", "garrote"])
def test_shrinkage_column_of_thresholds_matches_scalar_calls(rule):
    rng = np.random.default_rng(21)
    w = np.concatenate([rng.normal(size=40), [0.0, 1.5, -1.5, 0.25]])
    ts = [0.0, 0.25, 1.5, float(np.abs(w).max()), 0.7]
    stacked = _shrink(w, np.array(ts)[:, None], rule)
    assert stacked.shape == (len(ts), w.size)
    for row, t in zip(stacked, ts):
        assert np.array_equal(row, _shrink(w, t, rule)), t


# ---------------------------------------------------------------- selectors


def test_universal_threshold_formula():
    y = unit_mad(np.random.default_rng(1).normal(size=512))
    t = threshold_row("Universal", y, n=1024)[0]
    assert t == pytest.approx(np.sqrt(2.0 * np.log(1024.0)), abs=1e-12)
    assert threshold_row("Universal", 2.5 * y, n=1024)[0] == pytest.approx(
        2.5 * np.sqrt(2.0 * np.log(1024.0)), abs=1e-12
    )


def test_universal_uses_mad_sigma_by_default():
    y = np.random.default_rng(2).normal(size=512)
    t = threshold_row("Universal", y, n=1024)[0]
    sig = mad(y)
    assert t == pytest.approx(sig * np.sqrt(2.0 * np.log(1024.0)), rel=1e-12)


def test_universal_level_uses_level_sizes():
    rng = np.random.default_rng(3)
    d1, d2 = unit_mad(rng.normal(size=256)), unit_mad(rng.normal(size=128))
    ts = threshold_row("UniversalLevel", d1, d2, n=512)
    assert ts.tolist() == pytest.approx(
        [np.sqrt(2.0 * np.log(256.0)), np.sqrt(2.0 * np.log(128.0))], abs=1e-12
    )


def test_visushrink_aliases_universal_value():
    y = np.random.default_rng(4).normal(size=256)
    assert threshold_row("VisuShrink", y)[0] == threshold_row("Universal", y)[0]


def test_sure_matches_brute_force():
    rng = np.random.default_rng(5)
    # mixture: mostly noise, some strong coefficients
    y = np.where(rng.random(256) < 0.1, rng.normal(scale=6.0, size=256),
                 rng.normal(size=256))
    t, s = threshold_row("SURE", y)[0], mad(y)
    assert t == pytest.approx(s * sure_oracle(y / s), abs=1e-12)


def test_sure_pools_levels():
    rng = np.random.default_rng(6)
    d1, d2 = rng.normal(size=128), rng.normal(size=64)
    t, s = threshold_row("SURE", d1, d2)[0], mad(d1)  # the finest level's noise
    assert t == pytest.approx(s * sure_oracle(np.concatenate([d1, d2]) / s), abs=1e-12)


def test_sure_level_per_level():
    rng = np.random.default_rng(7)
    d1, d2 = rng.normal(size=128), 4.0 * rng.normal(size=64)
    ts = threshold_row("SURELevel", d1, d2)
    for t, d in zip(ts, (d1, d2)):  # each level at its own noise
        assert t == pytest.approx(mad(d) * sure_oracle(d / mad(d)), abs=1e-12)


def test_sure_rescales_by_sigma():
    y = np.random.default_rng(8).normal(size=256)
    t = threshold_row("SURE", 2.0 * y)[0]
    assert t == pytest.approx(2.0 * mad(y) * sure_oracle(y / mad(y)), rel=1e-12)


def test_sureshrink_sparse_branch_takes_universal():
    # equal magnitudes, each 0.6745 of the MAD noise: the sparsity statistic
    # stays under the gate
    y = 0.1 * np.ones(64)
    ts = threshold_row("SUREShrink", y)
    assert ts.tolist() == pytest.approx([mad(y) * np.sqrt(2.0 * np.log(64.0))], abs=1e-12)


def test_sureshrink_dense_branch_caps_at_universal():
    rng = np.random.default_rng(9)
    y = rng.normal(size=256)
    y[::4] *= 20.0  # a quarter of the level loud against its MAD noise
    s = mad(y)
    assert (np.sum((y / s) ** 2) - 256) / 256 > np.log2(256) ** 1.5 / 16  # clearly past the gate
    (t,) = threshold_row("SUREShrink", y)
    universal = np.sqrt(2.0 * np.log(256.0))
    assert t == pytest.approx(s * min(sure_oracle(y / s), universal), abs=1e-12)


def test_sparsity_bound_takes_numpys_scalar_route():
    # SUREShrink's sparsity test compares a level's statistic with this bound,
    # and numpy's array route to the same expression differs in the last bit
    # at some sizes (first n = 40 on common builds); a batched sweep must
    # keep the scalar route, or a statistic on the boundary flips the branch
    for n in range(1, 5000):
        assert _sparsity_bound(n) == float(np.log2(n) ** 1.5 / np.sqrt(n)), n


def test_gcv_matches_brute_force():
    rng = np.random.default_rng(10)
    w = np.where(rng.random(200) < 0.15, rng.normal(scale=8.0, size=200),
                 rng.normal(size=200))
    assert threshold_row("GCV", w)[0] == pytest.approx(gcv_oracle(w), abs=1e-12)


def test_gcv_level_skips_dead_levels():
    rng = np.random.default_rng(11)
    w = rng.normal(size=64)
    ts = threshold_row("GCVLevel", np.zeros(128), w)
    assert ts[0] == 0.0
    assert ts[1] == pytest.approx(gcv_oracle(w), abs=1e-12)


def test_selector_zero_sigma_means_zero_threshold():
    # more than half the level is exactly zero, so its MAD noise estimate is zero
    y = np.random.default_rng(12).normal(size=64)
    y[:33] = 0.0
    assert mad(y) == 0.0
    assert threshold_row("SURE", y).tolist() == [0.0]
    assert threshold_row("SUREShrink", y).tolist() == [0.0]


@pytest.mark.parametrize("sigma", [None, 1.3, 0.0])
@pytest.mark.parametrize("sizes", [(64, 32, 16), (65, 33, 17), (41, 20, 10, 9)])
def test_selectors_equal_sorting_per_call(sizes, sigma):
    # one sort per level and one of the pooled levels serve every selector;
    # odd and even level sizes take the median's middle value and middle pair.
    # The noise is each level's MAD estimate: as drawn (None), every level
    # rescaled by 1.3, or zero (0.0) with more than half the finest level zero
    rng = np.random.default_rng(sum(sizes))
    details = [rng.normal(scale=1.0 + j, size=m) for j, m in enumerate(sizes)]
    details[0][::5] = np.round(details[0][::5])  # ties and exact zeros
    details[-1][: len(details[-1]) // 2] *= 20.0  # a loud level takes the dense SUREShrink branch
    if sigma == 0.0:
        details[0][: sizes[0] // 2 + 1] = 0.0
    elif sigma is not None:
        details = [sigma * d for d in details]
    quiet = details[:1] + [np.where(np.arange(sizes[1]) % 3, 0.0, details[1]), *details[2:]]
    for d, n in ((details, 2 * sizes[0]), (details[:1], 2 * sizes[0] + 1), (quiet, 2 * sizes[0])):
        # one method per call, and all nine from one call as the sweep takes them
        swept = _thresholds(list(METHODS), d, n)
        assert swept.shape == (9, len(d))
        for method, in_one_call in zip(METHODS, swept.tolist()):
            want = threshold_oracle(d, n, method)
            want = want if isinstance(want, list) else [want] * len(d)
            assert threshold_row(method, *d, n=n).tolist() == want, method
            assert in_one_call == want, method
        # pooled methods alone give those rows of the nine-method table
        pooled = [m for m in METHODS if not SELECTORS[m][1]]
        assert _thresholds(pooled, d, n).tolist() == [swept[METHODS.index(m)].tolist() for m in pooled]
    # more than half of the second level is exactly zero: its MAD, and so its
    # per-level universal and SURE thresholds, are zero
    assert mad(quiet[1]) == 0.0
    for method in ("UniversalLevel", "SURELevel"):
        assert threshold_row(method, *quiet)[1] == 0.0
    assert mad(details[0]) == np.median(np.abs(details[0])) / 0.6745


def test_only_selectors_reading_each_levels_noise_need_its_eight_coefficients():
    # per level, Universal and SURE estimate each level's own noise; pooled
    # selectors and SUREShrink read the finest level's, GCV none
    rng = np.random.default_rng(29)
    d = rng.normal(size=64), rng.normal(scale=3.0, size=5)
    for method in ("Universal", "VisuShrink", "SURE", "GCV", "SUREShrink", "GCVLevel"):
        assert np.isfinite(threshold_row(method, *d)).all()
    for method in ("UniversalLevel", "VisuShrinkLevel", "SURELevel"):
        with pytest.raises(ValueError, match="need at least 8 coefficients, got 5"):
            threshold_row(method, *d)


def test_selector_rejects_all_zero_details():
    with pytest.raises(ValueError, match="all detail coefficients are zero"):
        threshold_row("Universal", np.zeros(32), np.zeros(16))
    with pytest.raises(ValueError, match="all detail coefficients are zero"):
        denoise(np.zeros(64), level=3)
    # a constant's details are zero too, though its transform rounds
    for c in (0.1, 5.0, 100.3):
        with pytest.raises(ValueError, match="all detail coefficients are zero"):
            denoise(np.full(300, c))
        with pytest.raises(ValueError, match="all detail coefficients are zero"):
            method_sweep(np.full(300, c))


def test_selector_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        denoise(np.arange(64.0), "oracle", level=2)


@pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("method", ["Universal", "SURE", "GCV", "GCVLevel"])
def test_selector_rejects_bad_sigma(sigma, method):
    # the noise is always the MAD estimate: no caller's sigma, good or bad, is taken
    y = np.random.default_rng(12).normal(size=64)
    with pytest.raises(TypeError, match="sigma"):
        denoise(np.cumsum(y), method, level=2, sigma=sigma)
    with pytest.raises(TypeError):
        _thresholds([method], [y], 128, sigma)


# ---------------------------------------------------------------- denoise


def noisy_sinusoid(n=1024, seed=0, snr_db=10.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    clean = np.sin(2.0 * np.pi * t / 64.0)
    sigma = np.sqrt(np.mean(clean**2) / 10.0 ** (snr_db / 10.0))
    return clean, clean + sigma * rng.normal(size=n)


def test_denoise_improves_snr():
    clean, noisy = noisy_sinusoid()
    est = denoise(noisy, method="SURE", rule="garrote", level=4)
    assert est.size == noisy.size
    assert snr_db(clean, est) > snr_db(clean, noisy) + 3.0


def test_denoise_zero_sigma_is_identity():
    # each value twice over, each a signed power of two, so every Haar product
    # is exact and the finest details, and with them the MAD noise, are zero
    rng = np.random.default_rng(0)
    noisy = np.repeat(rng.choice([-1.0, 1.0], 250) * 2.0 ** rng.integers(-3, 4, 250), 2)
    assert not _dwt(noisy, 3, "haar")[252:].any()
    out = denoise(noisy, method="Universal", rule="hard", level=3, wavelet="haar")
    assert out.size == 500
    assert np.abs(out - noisy).max() < 1e-10


def _shrink_reference(c, level, wavelet, n, thresholds, rules):
    """Each row on its own: every detail level shrunk by its own _shrink call
    at one threshold, then inverted alone."""
    rows = []
    for t, rule in zip(thresholds, rules):
        shrunk = c.copy()
        for j, tj in enumerate(np.broadcast_to(t, level).tolist()):
            d = slice(c.size >> (j + 1), c.size >> j)
            shrunk[d] = _shrink(c[d], tj, rule)
        rows.append(_idwt(shrunk, level, wavelet, n))
    return rows


@pytest.mark.parametrize("rules", [("hard",) * 9, ("soft",) * 9, ("garrote",) * 9,
                                   tuple(CONVENTIONAL_RULE.values())])
@pytest.mark.parametrize("n,wavelet", [(301, "db3"), (517, "haar"), (1461, "db3")])
def test_shrink_and_invert_equals_row_by_row(rules, n, wavelet):
    # odd lengths pad periodically; rows mix one threshold repeated across
    # the levels and per-level thresholds, a zero threshold, and a level
    # holding exact zeros; a column repeated across the levels equals the
    # scalar call per level
    x = np.cumsum(np.random.default_rng(n).standard_normal(n))
    c = _dwt(x, 4, wavelet)
    c[c.size >> 2 : c.size >> 1][::3] = 0.0  # detail level 1
    rng = np.random.default_rng(n + 1)
    thresholds = np.array([[0.0] * 4, [0.0] * 4, [1.5] * 4, *(rng.uniform(0.0, 3.0, 4) for _ in range(6))])
    estimates = _shrink_and_invert(c, 4, wavelet, n, thresholds, rules)
    assert estimates.shape == (9, n)
    for i, want in enumerate(_shrink_reference(c, 4, wavelet, n, thresholds, rules)):
        assert np.array_equal(estimates[i], want), (i, rules[i])
    column = thresholds[:, :1]
    repeated = _shrink_and_invert(c, 4, wavelet, n, np.repeat(column, 4, axis=1), rules)
    for i, want in enumerate(_shrink_reference(c, 4, wavelet, n, column, rules)):
        assert np.array_equal(repeated[i], want), (i, rules[i])


def test_denoise_unknown_rule():
    _, noisy = noisy_sinusoid(n=256)
    with pytest.raises(ValueError, match="unknown rule"):
        denoise(noisy, rule="medium")
    with pytest.raises(ValueError, match="^unknown rule 'bogus'"):
        method_sweep(noisy, rule="bogus")


def test_denoise_with_haar_and_other_levels():
    clean, noisy = noisy_sinusoid(seed=3)
    est = denoise(noisy, method="GCV", rule="soft", level=5, wavelet="haar")
    assert snr_db(clean, est) > snr_db(clean, noisy)


# ---------------------------------------------------------------- fidelity


def test_fidelity_hand_values():
    snr, psnr, identical = _fidelities(np.array([3.0, 4.0]), np.array([[3.0, 3.0]]))
    # residual energy 1, reference energy 25, peak 4 over 2 samples
    assert snr.tolist() == pytest.approx([10.0 * np.log10(25.0)], abs=1e-12)
    assert psnr.tolist() == pytest.approx([10.0 * np.log10(32.0)], abs=1e-12)
    assert identical.tolist() == [False]


def test_fidelity_identical_flag():
    x = np.array([3.0, 4.0])
    snr, psnr, identical = _fidelities(x, x[None].copy())
    assert identical.tolist() == [True]
    assert snr.tolist() == psnr.tolist() == [np.inf]


def test_fidelity_error_contracts():
    _, noisy = noisy_sinusoid(n=256)
    with pytest.raises(ValueError, match="shape mismatch"):
        method_sweep(noisy, reference=np.ones(5))
    with pytest.raises(ValueError, match="zero energy"):
        method_sweep(noisy, reference=np.zeros(256))
    for bad in (np.nan, np.inf, -np.inf):  # a NaN would score every method NaN
        with pytest.raises(ValueError, match="reference contains non-finite values"):
            method_sweep(noisy, reference=np.where(np.arange(256) == 100, bad, noisy))


# ---------------------------------------------------------------- sweep


def test_sweep_runs_all_nine_methods():
    _, noisy = noisy_sinusoid()
    report = method_sweep(noisy)
    assert tuple(row[0] for row in report.rows()) == METHODS
    assert report.snr.shape == report.psnr.shape == report.identical.shape == (9,)
    assert report.thresholds.shape == (9, 4) and report.estimates.shape == (9, noisy.size)
    assert np.isfinite(report.snr).all() and np.isfinite(report.psnr).all()
    assert report.convention


def test_sweep_default_rules_are_conventional():
    _, noisy = noisy_sinusoid(seed=1)
    report = method_sweep(noisy)
    for method, rule in zip(METHODS, report.rules):
        assert rule == CONVENTIONAL_RULE[method]


def test_sweep_explicit_rule_applies_everywhere():
    _, noisy = noisy_sinusoid(seed=2)
    report = method_sweep(noisy, rule="soft")
    assert all(rule == "soft" for rule in report.rules)


def test_sweep_hard_universal_is_gentler_than_soft_visushrink():
    # same threshold value, but soft shrinkage also shrinks the survivors,
    # so against the input itself Universal/hard keeps more signal energy
    _, noisy = noisy_sinusoid(seed=0)
    report = method_sweep(noisy)
    snr = dict(zip(METHODS, report.snr))
    assert snr["Universal"] >= snr["VisuShrink"]


def test_sweep_against_external_reference():
    clean, noisy = noisy_sinusoid(seed=5)
    report = method_sweep(noisy, reference=clean)
    sure = report.snr[METHODS.index("SURE")]
    baseline = snr_db(clean, noisy)
    assert sure > baseline


@pytest.mark.parametrize("level", [1, 2, 4])
def test_sweep_names_its_minimum_length(level):
    # every per-level MAD needs 8 coefficients: ceil(n / 2**level) >= 8, so
    # 7 * 2**level + 1 samples are the fewest the sweep takes at this level
    need = 7 * 2**level + 1
    assert sweep_max_level(need) == level and sweep_max_level(need - 1) == level - 1
    walk = np.cumsum(np.random.default_rng(14).standard_normal(need))
    assert len(method_sweep(walk, level=level).rows()) == 9
    with pytest.raises(ValueError, match=f"^level {level} exceeds {level - 1}, the deepest the sweep "
                                         f"takes on {need - 1} samples$"):
        method_sweep(walk[:-1], level=level)


def test_sweep_checks_its_length_before_decomposing():
    # 10 samples cannot be split 4 times either; the sweep's own limit is named
    with pytest.raises(ValueError, match="^level 4 exceeds 0, the deepest the sweep takes on 10 samples$"):
        method_sweep(np.arange(10.0), level=4)
    with pytest.raises(ValueError, match="^level must be a positive integer, got 0$"):
        method_sweep(np.arange(10.0), level=0)


@pytest.mark.parametrize("level", [20000, 10**8, 4 * 10**9])
def test_sweep_refuses_huge_levels_by_its_own_message(level):
    # a huge level is compared with the deepest one, so 2**level is never built
    x = np.random.default_rng(15).standard_normal(300)
    with pytest.raises(ValueError, match=f"^level {level} exceeds 5, the deepest the sweep takes on 300 samples$"):
        method_sweep(x, level=level)
    with pytest.raises(ValueError, match=f"^300 samples cannot be split {level} times$"):
        wpt_forward(x, level)


def test_sweep_message_writes_its_rule_just_past_the_printed_level():
    # past level 14000 a minimum sample count would print with thousands of
    # digits; the deepest level keeps the message the same at every level
    for level in (14000, 14001):
        x = np.random.default_rng(15).standard_normal(300)
        with pytest.raises(ValueError) as info:
            method_sweep(x, level=level)
        assert str(info.value) == f"level {level} exceeds 5, the deepest the sweep takes on 300 samples"


def test_level_shortfall_prints_the_bound_up_to_the_printed_level():
    # the one rule of the sweep, the transforms and the CLI's data check:
    # the deepest level, an integer however long the series
    assert max_level(300) == 8 and max_level(512) == 9 and max_level(511) == 8
    assert sweep_max_level(300) == 5 and sweep_max_level(113) == 4 and sweep_max_level(112) == 3
    assert sweep_max_level(8) == 0 and sweep_max_level(1) == 0
    assert max_level(2**14001) == 14001 and sweep_max_level(7 * 2**14001 + 1) == 14001
    assert sweep_max_level(7 * 2**14001) == 14000


def test_levels_are_taken_exactly_when_they_fit():
    # the packet split keeps a sample per leaf, 2**L <= n; the sweep keeps
    # MIN_MAD_COEFFS = 8 coefficients at its coarsest detail level,
    # ceil(n / 2**L) >= 8, which is 7 * 2**L < n
    walk = np.cumsum(np.random.default_rng(14).standard_normal(600))
    for n in range(8, 601):
        x = walk[:n]
        deepest = max(level for level in range(11) if level == 0 or 7 * 2**level < n)
        assert sweep_max_level(n) == deepest
        for level in range(1, 11):
            if 2**level <= n:
                assert wpt_forward(x, level).level == level
            else:
                with pytest.raises(ValueError, match=f"^{n} samples cannot be split {level} times$"):
                    wpt_forward(x, level)
            if 7 * 2**level < n:
                assert method_sweep(x, level=level).thresholds.shape == (9, level)
            else:
                with pytest.raises(ValueError, match=f"^level {level} exceeds {deepest}, the deepest the sweep "
                                                     f"takes on {n} samples$"):
                    method_sweep(x, level=level)


def test_denoising_leaves_no_reference_cycles():
    x = np.random.default_rng(38).standard_normal(300)
    assert_no_reference_cycles([lambda: denoise(x), lambda: method_sweep(x)])


def test_sweep_rejects_reference_of_another_shape():
    _, noisy = noisy_sinusoid(n=256)
    with pytest.raises(ValueError, match="shape mismatch"):
        method_sweep(noisy, reference=noisy[:-1])


def test_sweep_rows_shape():
    _, noisy = noisy_sinusoid(seed=6)
    rows = method_sweep(noisy).rows()
    assert len(rows) == 9
    for method, rule, thresholds, snr, psnr, identical in rows:
        assert isinstance(method, str) and isinstance(rule, str)
        assert isinstance(thresholds, str) and thresholds
        assert isinstance(identical, bool)
        float(snr), float(psnr)


@pytest.mark.parametrize("rule", [None, "hard", "soft", "garrote"])
def test_sweep_rows_match_denoise(rule):
    # each sweep row scores exactly the signal denoise returns for it
    _, noisy = noisy_sinusoid(seed=7)
    for method, use_rule, _, snr, psnr, identical in method_sweep(noisy, rule=rule, level=3).rows():
        fid = _fidelities(noisy, denoise(noisy, method, use_rule, level=3)[None])
        assert (snr, psnr, identical) == tuple(a.item() for a in fid)


@pytest.mark.parametrize("method", METHODS)
def test_denoise_defaults_to_the_conventional_rule(method):
    # denoise(x, m) is the default sweep's row m, Universal with hard as
    # CONVENTIONAL_RULE pairs them, not every method with garrote; the jumps
    # put signal above every method's threshold, so the rules differ
    _, noisy = noisy_sinusoid(seed=43)
    x = noisy + 5.0 * (np.arange(noisy.size) % 256 < 128)
    report = method_sweep(x)
    assert np.array_equal(denoise(x, method), report.estimates[METHODS.index(method)])


@pytest.mark.parametrize("rule", [None, "hard", "soft", "garrote"])
@pytest.mark.parametrize("wavelet", ["db3", "haar"])
def test_sweep_estimates_are_denoise_bit_for_bit(rule, wavelet):
    # the CLI writes a row's estimate as the de-noised series, and denoise is
    # one row of the sweep's path: its one-method threshold table is the
    # method's row of the nine-method table; level 5 takes two bank stages
    walk = np.cumsum(np.random.default_rng(13).standard_normal(500))
    for level in (3, 4, 5):
        report = method_sweep(walk, rule=rule, level=level, wavelet=wavelet)
        c = _dwt(walk, level, wavelet)
        details = [c[c.size >> (j + 1) : c.size >> j] for j in range(level)]
        assert np.array_equal(_thresholds(list(METHODS), details, walk.size), report.thresholds)
        for i, (method, use_rule, estimate) in enumerate(zip(METHODS, report.rules, report.estimates)):
            expected = denoise(walk, method, use_rule, level=level, wavelet=wavelet)
            assert estimate.shape == expected.shape
            assert np.array_equal(estimate, expected), (level, method)
            row = _thresholds([method], details, walk.size)[0]
            assert np.array_equal(row, report.thresholds[i]), (level, method)


@pytest.mark.parametrize("n", [100, 1461])
def test_denoise_refuses_exactly_the_levels_the_sweep_refuses(n):
    # denoise is one row of the sweep's path, so it takes the sweep's levels
    # and refuses the rest by the sweep's message: on 100 samples SURE and
    # GCVLevel at level 5 would return an estimate no sweep row holds
    x = np.cumsum(np.random.default_rng(47).standard_normal(n))
    for level in range(1, max_level(n) + 1):
        try:
            method_sweep(x, level=level)
            refused = None
        except ValueError as exc:
            refused = str(exc)
        for method in METHODS:
            if refused is None:
                assert denoise(x, method, level=level).shape == (n,)
            else:
                with pytest.raises(ValueError) as info:
                    denoise(x, method, level=level)
                assert str(info.value) == refused, (level, method)
