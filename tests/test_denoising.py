"""Shrinkage rules, threshold selectors, fidelity scoring, the method sweep."""

import numpy as np
import pytest

from comove.denoising import (
    CONVENTIONAL_RULE,
    METHODS,
    apply_shrinkage,
    canonical_method,
    denoise,
    estimate_noise_sigma,
    fidelity_metrics,
    method_sweep,
    select_threshold,
)
from comove.packets import DwtCoeffs, dwt_forward


def coeffs_from_details(*detail_levels, n=None):
    """Wrap raw detail arrays in a decomposition record for the selectors."""
    details = tuple(np.asarray(d, dtype=float) for d in detail_levels)
    if n is None:
        n = 2 * details[0].size
    return DwtCoeffs(
        approx=np.zeros(details[-1].size),
        details=details,
        wavelet="db3",
        original_length=n,
        padded_length=n,
    )


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
    assert estimate_noise_sigma(d) == pytest.approx(1.0, abs=1e-12)


def test_noise_sigma_scales_linearly():
    rng = np.random.default_rng(0)
    d = rng.normal(size=512)
    assert estimate_noise_sigma(3.0 * d) == pytest.approx(
        3.0 * estimate_noise_sigma(d), rel=1e-12
    )


def test_noise_sigma_needs_enough_coefficients():
    with pytest.raises(ValueError, match="at least 8"):
        estimate_noise_sigma(np.ones(7))


# ---------------------------------------------------------------- shrinkage


def test_shrinkage_rules_frozen_vector():
    w = np.array([-3.0, -2.0, -1.5, 0.0, 1.5, 2.0, 3.0])
    np.testing.assert_allclose(
        apply_shrinkage(w, 2.0, "hard"), [-3, 0, 0, 0, 0, 0, 3], atol=1e-15
    )
    np.testing.assert_allclose(
        apply_shrinkage(w, 2.0, "soft"), [-1, 0, 0, 0, 0, 0, 1], atol=1e-15
    )
    np.testing.assert_allclose(
        apply_shrinkage(w, 2.0, "garrote"),
        [-5.0 / 3.0, 0, 0, 0, 0, 0, 5.0 / 3.0],
        atol=1e-15,
    )


def test_shrinkage_worked_examples():
    assert apply_shrinkage(5.0, 2.0, "soft") == pytest.approx(3.0, abs=1e-12)
    assert apply_shrinkage(5.0, 2.0, "garrote") == pytest.approx(4.2, abs=1e-12)
    assert apply_shrinkage(5.0, 2.0, "hard") == 5.0


def test_shrinkage_scalar_returns_float():
    out = apply_shrinkage(1.0, 2.0, "soft")
    assert isinstance(out, float)
    assert out == 0.0


def test_shrinkage_zeroes_the_boundary():
    for rule in ("hard", "soft", "garrote"):
        assert apply_shrinkage(2.0, 2.0, rule) == 0.0
        assert apply_shrinkage(-2.0, 2.0, rule) == 0.0


def test_shrinkage_zero_threshold_is_identity():
    w = np.array([-1.5, 0.0, 2.5])
    for rule in ("hard", "soft", "garrote"):
        np.testing.assert_allclose(apply_shrinkage(w, 0.0, rule), w, atol=1e-15)


def test_garrote_handles_zero_without_warning():
    with np.errstate(all="raise"):
        out = apply_shrinkage(np.array([0.0, 5.0]), 2.0, "garrote")
    np.testing.assert_allclose(out, [0.0, 4.2], atol=1e-12)


def test_shrinkage_error_contracts():
    with pytest.raises(ValueError, match="unknown rule"):
        apply_shrinkage(np.ones(3), 1.0, "medium")
    with pytest.raises(ValueError, match="finite and nonnegative"):
        apply_shrinkage(np.ones(3), -1.0, "soft")


# ---------------------------------------------------------------- selectors


def test_universal_threshold_formula():
    y = np.random.default_rng(1).normal(size=512)
    c = coeffs_from_details(y, n=1024)
    t = select_threshold(c, "Universal", sigma=1.0)
    assert t == pytest.approx(np.sqrt(2.0 * np.log(1024.0)), abs=1e-12)
    assert select_threshold(c, "Universal", sigma=2.5) == pytest.approx(
        2.5 * np.sqrt(2.0 * np.log(1024.0)), abs=1e-12
    )


def test_universal_uses_mad_sigma_by_default():
    y = np.random.default_rng(2).normal(size=512)
    c = coeffs_from_details(y, n=1024)
    t = select_threshold(c, "Universal")
    sig = estimate_noise_sigma(y)
    assert t == pytest.approx(sig * np.sqrt(2.0 * np.log(1024.0)), rel=1e-12)


def test_universal_level_uses_level_sizes():
    rng = np.random.default_rng(3)
    d1, d2 = rng.normal(size=256), rng.normal(size=128)
    c = coeffs_from_details(d1, d2, n=512)
    ts = select_threshold(c, "UniversalLevel", sigma=1.0)
    assert ts == pytest.approx(
        [np.sqrt(2.0 * np.log(256.0)), np.sqrt(2.0 * np.log(128.0))], abs=1e-12
    )


def test_visushrink_aliases_universal_value():
    y = np.random.default_rng(4).normal(size=256)
    c = coeffs_from_details(y)
    assert select_threshold(c, "VisuShrink", sigma=1.0) == select_threshold(
        c, "Universal", sigma=1.0
    )


def test_sure_matches_brute_force():
    rng = np.random.default_rng(5)
    # mixture: mostly noise, some strong coefficients
    y = np.where(rng.random(256) < 0.1, rng.normal(scale=6.0, size=256),
                 rng.normal(size=256))
    c = coeffs_from_details(y)
    t = select_threshold(c, "SURE", sigma=1.0)
    assert t == pytest.approx(sure_oracle(y), abs=1e-12)


def test_sure_pools_levels():
    rng = np.random.default_rng(6)
    d1, d2 = rng.normal(size=128), rng.normal(size=64)
    c = coeffs_from_details(d1, d2)
    t = select_threshold(c, "SURE", sigma=1.0)
    assert t == pytest.approx(sure_oracle(np.concatenate([d1, d2])), abs=1e-12)


def test_sure_level_per_level():
    rng = np.random.default_rng(7)
    d1, d2 = rng.normal(size=128), 4.0 * rng.normal(size=64)
    c = coeffs_from_details(d1, d2)
    ts = select_threshold(c, "SURELevel", sigma=1.0)
    assert ts[0] == pytest.approx(sure_oracle(d1), abs=1e-12)
    assert ts[1] == pytest.approx(sure_oracle(d2), abs=1e-12)


def test_sure_rescales_by_sigma():
    y = np.random.default_rng(8).normal(size=256)
    c2 = coeffs_from_details(2.0 * y)
    t = select_threshold(c2, "SURE", sigma=2.0)
    assert t == pytest.approx(2.0 * sure_oracle(y), rel=1e-12)


def test_sureshrink_sparse_branch_takes_universal():
    # weak coefficients: the sparsity statistic stays under the gate
    y = 0.1 * np.ones(64)
    c = coeffs_from_details(y)
    ts = select_threshold(c, "SUREShrink", sigma=1.0)
    assert ts == pytest.approx([np.sqrt(2.0 * np.log(64.0))], abs=1e-12)


def test_sureshrink_dense_branch_caps_at_universal():
    rng = np.random.default_rng(9)
    y = rng.normal(scale=5.0, size=256)  # loud level, clearly past the gate
    c = coeffs_from_details(y)
    (t,) = select_threshold(c, "SUREShrink", sigma=1.0)
    universal = np.sqrt(2.0 * np.log(256.0))
    assert t == pytest.approx(min(sure_oracle(y), universal), abs=1e-12)


def test_gcv_matches_brute_force():
    rng = np.random.default_rng(10)
    w = np.where(rng.random(200) < 0.15, rng.normal(scale=8.0, size=200),
                 rng.normal(size=200))
    c = coeffs_from_details(w)
    assert select_threshold(c, "GCV") == pytest.approx(gcv_oracle(w), abs=1e-12)


def test_gcv_level_skips_dead_levels():
    rng = np.random.default_rng(11)
    w = rng.normal(size=64)
    c = coeffs_from_details(np.zeros(128), w)
    ts = select_threshold(c, "GCVLevel")
    assert ts[0] == 0.0
    assert ts[1] == pytest.approx(gcv_oracle(w), abs=1e-12)


def test_selector_zero_sigma_means_zero_threshold():
    y = np.random.default_rng(12).normal(size=64)
    c = coeffs_from_details(y)
    assert select_threshold(c, "SURE", sigma=0.0) == 0.0
    assert select_threshold(c, "SUREShrink", sigma=0.0) == [0.0]


def test_selector_rejects_all_zero_details():
    c = coeffs_from_details(np.zeros(32), np.zeros(16))
    with pytest.raises(ValueError, match="all detail coefficients are zero"):
        select_threshold(c, "Universal")


def test_selector_unknown_method():
    c = coeffs_from_details(np.ones(16))
    with pytest.raises(ValueError, match="unknown method"):
        select_threshold(c, "oracle")


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
    before = fidelity_metrics(clean, noisy).snr
    after = fidelity_metrics(clean, est).snr
    assert after > before + 3.0


def test_denoise_zero_sigma_is_identity():
    _, noisy = noisy_sinusoid(n=500)
    out = denoise(noisy, method="Universal", rule="hard", level=3, sigma=0.0)
    assert out.size == 500
    assert np.abs(out - noisy).max() < 1e-10


def test_denoise_with_haar_and_other_levels():
    clean, noisy = noisy_sinusoid(seed=3)
    est = denoise(noisy, method="GCV", rule="soft", level=5, wavelet="haar")
    assert fidelity_metrics(clean, est).snr > fidelity_metrics(clean, noisy).snr


# ---------------------------------------------------------------- fidelity


def test_fidelity_hand_values():
    f = fidelity_metrics(np.array([3.0, 4.0]), np.array([3.0, 3.0]))
    # residual energy 1, reference energy 25, peak 4 over 2 samples
    assert f.snr == pytest.approx(10.0 * np.log10(25.0), abs=1e-12)
    assert f.psnr == pytest.approx(10.0 * np.log10(32.0), abs=1e-12)
    assert f.identical is False


def test_fidelity_identical_flag():
    x = np.array([3.0, 4.0])
    f = fidelity_metrics(x, x.copy())
    assert f.identical is True
    assert f.snr == np.inf and f.psnr == np.inf


def test_fidelity_error_contracts():
    with pytest.raises(ValueError, match="shape mismatch"):
        fidelity_metrics(np.ones(4), np.ones(5))
    with pytest.raises(ValueError, match="zero energy"):
        fidelity_metrics(np.zeros(8), np.ones(8))


# ---------------------------------------------------------------- sweep


def test_sweep_runs_all_nine_methods():
    _, noisy = noisy_sinusoid()
    report = method_sweep(noisy, series_name="demo")
    assert report.series_name == "demo"
    assert tuple(s.method for s in report.scores) == METHODS
    assert all(np.isfinite(s.snr) and np.isfinite(s.psnr) for s in report.scores)
    assert report.convention


def test_sweep_default_rules_are_conventional():
    _, noisy = noisy_sinusoid(seed=1)
    report = method_sweep(noisy)
    for s in report.scores:
        assert s.rule == CONVENTIONAL_RULE[s.method]


def test_sweep_explicit_rule_applies_everywhere():
    _, noisy = noisy_sinusoid(seed=2)
    report = method_sweep(noisy, rule="soft")
    assert all(s.rule == "soft" for s in report.scores)


def test_sweep_hard_universal_is_gentler_than_soft_visushrink():
    # same threshold value, but soft shrinkage also shrinks the survivors,
    # so against the input itself Universal/hard keeps more signal energy
    _, noisy = noisy_sinusoid(seed=0)
    report = method_sweep(noisy)
    by_name = {s.method: s for s in report.scores}
    assert by_name["Universal"].snr >= by_name["VisuShrink"].snr


def test_sweep_winners_are_argmax():
    _, noisy = noisy_sinusoid(seed=4)
    report = method_sweep(noisy)
    best_snr = max(report.scores, key=lambda s: s.snr)
    best_psnr = max(report.scores, key=lambda s: s.psnr)
    assert report.winner_snr == best_snr.method
    assert report.winner_psnr == best_psnr.method


def test_sweep_against_external_reference():
    clean, noisy = noisy_sinusoid(seed=5)
    report = method_sweep(noisy, reference=clean)
    sure = next(s for s in report.scores if s.method == "SURE")
    baseline = fidelity_metrics(clean, noisy).snr
    assert sure.snr > baseline


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
    for s in method_sweep(noisy, rule=rule, level=3).scores:
        fid = fidelity_metrics(noisy, denoise(noisy, s.method, s.rule, level=3))
        assert (s.snr, s.psnr, s.identical) == (fid.snr, fid.psnr, fid.identical)
