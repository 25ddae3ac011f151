"""Acceptance gate: one end-to-end check per advertised numerical property.

Every test prints a single PASS/FAIL line with the measured quantities
(written straight to the terminal, bypassing capture) and then asserts the
thresholds, including its runtime budget. All seeds are frozen so each run
measures the same instances; the printed numbers should not drift between
machines beyond floating-point noise.
"""

import datetime
import time

import numpy as np
import pytest
from conftest import (
    dense_cells,
    four_series_expansion,
    laplace_det,
    multiple_from_partials,
    pack_cells,
    random_coherency_cell,
    unsmoothed_field,
)

import comove as cm
from comove import timeseries as tsm
from comove.cli import main as cli_main
from comove.coherence import CoherenceField


def report(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


# ------------------------------------------------------------ 1: identities


def test_coherence_determinant_identities(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(314)
    cells = np.empty((10, 10, 4, 4), dtype=complex)
    for a in range(10):
        for b in range(10):
            cells[a, b] = random_coherency_cell(rng, 4)

    worst_expansion = 0.0
    for cell in cells.reshape(-1, 4, 4):
        det_full, det_minor, _ = four_series_expansion(cell)
        worst_expansion = max(
            worst_expansion,
            abs(det_full - laplace_det(cell).real),
            abs(det_minor - laplace_det(cell[1:, 1:]).real),
        )

    field = CoherenceField(
        pairs=pack_cells(cells),
        labels=("a", "b", "c", "d"),
        scales=np.geomspace(2.0, 64.0, 10),
        dt=1.0,
        coi_outside=np.zeros((10, 10), dtype=bool),
        degenerate=np.zeros((10, 10), dtype=bool),
    )
    via_product = multiple_from_partials(field, 0)
    via_determinant = cm.coherence_result(field, 0).multiple
    worst_product = float(np.abs(via_product - via_determinant).max())
    elapsed = time.monotonic() - t0

    ok = worst_expansion <= 1e-12 and worst_product <= 1e-8 and elapsed < 1.0
    report(
        capsys,
        ok,
        "coherence determinant identities",
        f"closed-form expansion vs cofactor determinant {worst_expansion:.2e} "
        f"(tol 1e-12); product of partials vs determinant form {worst_product:.2e} "
        f"(tol 1e-8); 100 cells in {elapsed:.2f}s (budget 1s)",
    )
    assert worst_expansion <= 1e-12
    assert worst_product <= 1e-8
    assert elapsed < 1.0


# ------------------------------------------------------------ 2: calibration


def test_bivariate_coherence_calibration(capsys):
    t0 = time.monotonic()
    n = 1024
    grid = cm.make_scale_grid(n, 1.0)

    f = cm.cwt_morlet(np.random.default_rng(42).standard_normal(n), 1.0, grid)
    same = cm.coherence_result(cm.coherence_matrix_field([f, f]), 0)
    unflagged = ~same.flagged
    dev_same = float(np.abs(same.multiple[unflagged] - 1.0).max())

    rng = np.random.default_rng(2024)
    fa = cm.cwt_morlet(rng.standard_normal(n), 1.0, grid)
    fb = cm.cwt_morlet(rng.standard_normal(n), 1.0, grid)
    noise_field = cm.coherence_matrix_field([fa, fb])
    r2 = cm.coherence_result(noise_field, 0).multiple
    median_noise = float(np.median(r2[~noise_field.coi_outside]))
    elapsed = time.monotonic() - t0

    ok = dev_same <= 1e-12 and median_noise < 0.45 and elapsed < 30.0
    report(
        capsys,
        ok,
        "bivariate coherence calibration",
        f"identical series: worst |R2 - 1| = {dev_same:.1e} over {unflagged.sum()} "
        f"unflagged cells; independent white noise: median in-cone R2 = "
        f"{median_noise:.4f} (need < 0.45); {elapsed:.1f}s (budget 30s)",
    )
    assert dev_same <= 1e-12
    assert median_noise < 0.45
    assert elapsed < 30.0


# ------------------------------------------------------------ 3: detection


def test_common_factor_detection(capsys):
    t0 = time.monotonic()
    n = 1024
    grid = cm.make_scale_grid(n, 1.0)
    rng = np.random.default_rng(7)
    t = np.arange(n)
    s = np.sqrt(2.0) * np.sin(2.0 * np.pi * t / 64.0)  # unit power: 0 dB vs noise
    x1 = s + rng.standard_normal(n)
    x2 = s + rng.standard_normal(n)
    x3 = rng.standard_normal(n)
    x4 = rng.standard_normal(n)

    fields = [cm.cwt_morlet(x, 1.0, grid) for x in (x1, x2, x3, x4)]
    cf = cm.coherence_matrix_field(fields)
    res = cm.coherence_result(cf, 0)
    band = (grid.scales >= 48.0) & (grid.scales <= 80.0)
    usable = band[:, None] & ~cf.coi_outside
    mwc_mean = float(res.multiple[usable].mean())
    bivariate_mean = float((np.abs(dense_cells(cf)[:, :, 0, 1]) ** 2)[usable].mean())
    elapsed = time.monotonic() - t0

    ok = (
        mwc_mean >= 0.7
        and mwc_mean >= bivariate_mean - 0.05
        and elapsed < 60.0
    )
    report(
        capsys,
        ok,
        "common factor detection",
        f"band-mean multiple R2 = {mwc_mean:.4f} (need >= 0.7) vs bivariate "
        f"|rho12|^2 = {bivariate_mean:.4f} (monotonicity margin "
        f"{mwc_mean - bivariate_mean + 0.05:+.4f}); {elapsed:.1f}s (budget 60s)",
    )
    assert mwc_mean >= 0.7
    assert mwc_mean >= bivariate_mean - 0.05
    assert elapsed < 60.0


# ------------------------------------------------------------ 4: packets


def test_packet_energy_accounting(capsys):
    t0 = time.monotonic()
    x = np.random.default_rng(10).standard_normal(1000)  # odd size forces padding
    tree = cm.wpt_forward(x, 4)
    pr_err = float(np.abs(cm.wpt_inverse(tree) - x).max())

    y = np.random.default_rng(11).standard_normal(1024)  # no padding: exact energy
    tree_y = cm.wpt_forward(y, 4)
    leaf_energy = sum(float(np.sum(c**2)) for c in tree_y.nodes.values())
    energy_rel = abs(leaf_energy - float(np.sum(y**2))) / float(np.sum(y**2))

    fr_const = cm.energy_fractions(cm.wpt_forward(np.full(64, 3.25), 3))
    trend_const = fr_const[(0, 0, 0)]
    rest_const = sum(v for k, v in fr_const.items() if k != (0, 0, 0))

    walk = np.cumsum(np.random.default_rng(1).standard_normal(1024))
    walk_frac = cm.energy_fractions(cm.wpt_forward(walk, 4))[(0, 0, 0, 0)]
    elapsed = time.monotonic() - t0

    ok = (
        pr_err <= 1e-10
        and energy_rel <= 1e-9
        and abs(trend_const - 1.0) <= 1e-12
        and rest_const <= 1e-12
        and walk_frac >= 0.95
        and elapsed < 5.0
    )
    report(
        capsys,
        ok,
        "packet energy accounting",
        f"reconstruction error {pr_err:.1e} (tol 1e-10); leaf energy vs signal "
        f"energy {energy_rel:.1e} relative (tol 1e-9); constant input trend-node "
        f"fraction {trend_const}; random walk approximation fraction "
        f"{walk_frac:.5f} (need >= 0.95); {elapsed:.2f}s (budget 5s)",
    )
    assert pr_err <= 1e-10
    assert energy_rel <= 1e-9
    assert abs(trend_const - 1.0) <= 1e-12
    assert rest_const <= 1e-12
    assert walk_frac >= 0.95
    assert elapsed < 5.0


# ------------------------------------------------------------ 5: de-noising


def test_shrinkage_and_denoising_gain(capsys):
    t0 = time.monotonic()
    soft = float(cm.apply_shrinkage(np.array([5.0]), 2.0, "soft")[0])
    garrote = float(cm.apply_shrinkage(np.array([5.0]), 2.0, "garrote")[0])
    coeffs = cm.dwt_forward(np.random.default_rng(8).standard_normal(1024), 4)
    universal = cm.select_threshold(coeffs, "Universal", sigma=1.5)
    exact_err = max(
        abs(soft - 3.0),
        abs(garrote - 4.2),
        abs(universal - 1.5 * np.sqrt(2.0 * np.log(1024.0))),
    )

    n = 1024
    clean = np.sin(2.0 * np.pi * np.arange(n) / 64.0)
    sigma = np.sqrt(np.mean(clean**2) / 10.0)  # 10 dB signal-to-noise
    noisy = clean + sigma * np.random.default_rng(0).standard_normal(n)
    denoised = cm.denoise(noisy, method="SURE", rule="garrote", level=4)
    gain = cm.fidelity_metrics(clean, denoised).snr - cm.fidelity_metrics(clean, noisy).snr

    rows = cm.method_sweep(noisy, rule=None, level=4).rows()
    sweep_ok = len(rows) == 9 and all(
        np.isfinite(r[3]) and np.isfinite(r[4]) for r in rows
    )
    elapsed = time.monotonic() - t0

    ok = exact_err <= 1e-12 and gain >= 3.0 and sweep_ok and elapsed < 10.0
    report(
        capsys,
        ok,
        "shrinkage and de-noising gain",
        f"closed-form shrinkage/threshold error {exact_err:.1e} (tol 1e-12); "
        f"SURE+garrote SNR gain {gain:+.2f} dB (need >= +3); sweep rows "
        f"{len(rows)}/9 finite; {elapsed:.2f}s (budget 10s)",
    )
    assert exact_err <= 1e-12
    assert gain >= 3.0
    assert sweep_ok
    assert elapsed < 10.0


# ------------------------------------------------------------ 6: forecasting


def test_joint_model_forecast_advantage(capsys):
    t0 = time.monotonic()
    n, horizon, reps = 256, 30, 100
    phi = np.array([[0.6, 0.3], [0.3, 0.6]])
    truth = cm.VarmaModel(
        mu=np.zeros(2), phi=phi, theta=np.zeros((2, 2)), sigma=np.eye(2), n_obs=0
    )

    # Scoring is rolling one-step MSE over the held-out points: both model
    # classes forecast each point from the realized history, the regime where
    # cross-series dynamics are actually measurable. From-origin multi-step
    # errors at this horizon are dominated by accumulated innovation variance;
    # even the data-generating model beats the per-series fits only ~60% of
    # the time on that reading, so it is printed as a diagnostic, not scored.
    wins = 0
    ratios = []
    multistep_wins = 0
    for rep in range(reps):
        path = cm.simulate_varma(truth, n + horizon, seed=31_000 + rep)
        train = path[:n]

        varma = cm.fit_varma11(train)
        v_onestep = float((cm.residuals(varma, path)[n:] ** 2).mean())

        armas = [cm.fit_arma11(train[:, k]) for k in range(2)]
        a_onestep = float(
            np.mean(
                [(cm.residuals(m, path[:, k])[n:] ** 2).mean() for k, m in enumerate(armas)]
            )
        )
        wins += v_onestep <= a_onestep
        ratios.append(v_onestep / a_onestep)

        fc_v = cm.forecast(varma, train[-1], cm.residuals(varma, train)[-1], horizon)
        v_multi = float(cm.evaluate_mse(fc_v, path[n:]).cum_mse.mean())
        a_multi = 0.0
        for k, m in enumerate(armas):
            e_k = cm.residuals(m, train[:, k])
            fc_k = cm.forecast(m, train[-1, k], e_k[-1], horizon)
            a_multi += float(cm.evaluate_mse(fc_k, path[n:, k]).cum_mse[0])
        multistep_wins += v_multi <= a_multi / 2.0

    mean_ratio = float(np.mean(ratios))
    elapsed = time.monotonic() - t0

    ok = wins >= 70 and mean_ratio < 1.0 and elapsed < 300.0
    report(
        capsys,
        ok,
        "joint-model forecast advantage",
        f"rolling one-step MSE: joint model wins {wins}/{reps} (need >= 70), "
        f"mean MSE ratio {mean_ratio:.4f} (need < 1); from-origin multi-step "
        f"diagnostic (not scored): {multistep_wins}/{reps}; "
        f"{elapsed:.0f}s (budget 300s)",
    )
    assert wins >= 70
    assert mean_ratio < 1.0
    assert elapsed < 300.0


# ------------------------------------------------------------ 7: estimation


def _scaled_to_radius(rng, lo, hi):
    m = rng.uniform(-0.9, 0.9, (2, 2))
    radius = max(np.max(np.abs(np.linalg.eigvals(m))), 1e-9)
    return m * (rng.uniform(lo, hi) / radius)


def _draw_identifiable_model(rng):
    # The two-stage estimator regresses on lagged residual proxies, so a
    # model is only statistically identifiable at this sample size when the
    # moving-average signal does not nearly cancel the autoregressive part.
    # Bounding the smallest singular value of phi + theta away from zero
    # keeps every draw in the identifiable regime; the radii stay well under
    # the stationarity/invertibility limits.
    while True:
        phi = _scaled_to_radius(rng, 0.25, 0.55)
        theta = _scaled_to_radius(rng, 0.10, 0.25)
        if np.min(np.linalg.svd(phi + theta, compute_uv=False)) < 0.45:
            continue
        spectral = max(
            np.max(np.abs(np.linalg.eigvals(phi))),
            np.max(np.abs(np.linalg.eigvals(theta))),
        )
        if spectral > 0.7:
            continue
        return phi, theta


def test_estimator_recovery(capsys):
    t0 = time.monotonic()
    errors = []
    for k in range(20):
        rng = np.random.default_rng(16_000 + k)
        phi, theta = _draw_identifiable_model(rng)
        truth = cm.VarmaModel(
            mu=np.zeros(2), phi=phi, theta=theta, sigma=np.eye(2), n_obs=0
        )
        path = cm.simulate_varma(truth, 10_000, seed=26_000 + k)
        fit = cm.fit_varma11(path)
        errors.append(
            max(float(np.abs(fit.phi - phi).max()), float(np.abs(fit.theta - theta).max()))
        )
    worst = max(errors)
    elapsed = time.monotonic() - t0

    ok = worst <= 0.05 and elapsed < 120.0
    report(
        capsys,
        ok,
        "estimator recovery",
        f"20 seeded models at n=10000: worst elementwise error {worst:.4f} "
        f"(tol 0.05), median {float(np.median(errors)):.4f}; "
        f"{elapsed:.1f}s (budget 120s)",
    )
    assert worst <= 0.05
    assert elapsed < 120.0


# ------------------------------------------------------------ 8: determinism


def _write_acceptance_csv(path, n=150, p=2, seed=5):
    rng = np.random.default_rng(seed)
    data = np.zeros((n, p))
    for k in range(p):
        e = rng.normal(size=n)
        for t in range(1, n):
            data[t, k] = 0.6 * data[t - 1, k] + e[t]
    data += 50.0
    start = datetime.date(2020, 1, 1)
    names = [chr(ord("a") + k) for k in range(p)]
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for i in range(n):
            stamp = start + datetime.timedelta(days=i)
            fh.write(f"{stamp}," + ",".join(format(v, ".12g") for v in data[i]) + "\n")


def test_pipeline_determinism(tmp_path, capsys):
    src = tmp_path / "input.csv"
    _write_acceptance_csv(src)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input = {src}\n"
        "end = 2020-04-29\n"
        "depth = 3\n"
        "denoise_level = 3\n"
        "horizon = 5\n"
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["pipeline", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    capsys.readouterr()  # the runs echo config and file listings; not under test

    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    ok = identical and len(names) >= 10
    report(
        capsys,
        ok,
        "pipeline determinism",
        f"two runs from one config: {len(names)} output files byte-identical",
    )
    assert identical
    assert len(names) >= 10


# ------------------------------------------------------------ 9: degenerates


def test_degenerate_inputs(tmp_path, capsys):
    n = 256
    rng = np.random.default_rng(3)
    grid = cm.make_scale_grid(n, 1.0)
    fx = cm.cwt_morlet(rng.standard_normal(n), 1.0, grid)
    fy = cm.cwt_morlet(rng.standard_normal(n), 1.0, grid)
    fz = cm.cwt_morlet(rng.standard_normal(n), 1.0, grid)

    # duplicated series: partial coherence must flag, not crash
    twin = cm.coherence_result(cm.coherence_matrix_field([fx, fx, fy]), 0)
    twin_ok = bool(twin.flagged.any()) and bool(
        np.isfinite(twin.multiple).all()
        and all(np.isfinite(v).all() for v in twin.partial_sq.values())
    )

    # constant series: the ARMA fitter must refuse it outright
    with pytest.raises(ValueError, match="constant"):
        cm.fit_arma11(np.full(100, 2.5))

    # unsmoothed spectra make every cell rank one: all cells flagged
    rank_one = cm.coherence_result(unsmoothed_field([fx, fy, fz]), 0)
    rank_one_ok = bool(rank_one.flagged.all())

    # representative error contracts, one or two per module (the unit suite
    # carries the full matrix)
    arma = cm.VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.2]], sigma=[[1.0]], n_obs=100)
    tree = cm.wpt_forward(np.arange(64.0), 3)
    fc = cm.forecast(arma, 1.0, 0.5, 3)
    contracts = [
        (tsm.DataError, lambda: tsm.load_csv(str(tmp_path / "missing.csv"))),
        (ValueError, lambda: tsm.parse_date("not-a-date")),
        (ValueError, lambda: cm.make_scale_grid(4, 0.0)),
        (ValueError, lambda: cm.cwt_morlet(np.array([1.0, np.nan, 2.0]), 1.0)),
        (ValueError, lambda: cm.coherence_matrix_field([fx])),
        (ValueError, lambda: cm.coherence_result(cm.coherence_matrix_field([fx, fy]), 9)),
        (ValueError, lambda: cm.wpt_forward(np.arange(64.0), 0)),
        (ValueError, lambda: cm.wpt_forward(np.arange(64.0), 3, wavelet="sym9")),
        (ValueError, lambda: cm.reconstruct_node(tree, (0, 0, 0, 0, 0))),
        (ValueError, lambda: cm.apply_shrinkage(np.ones(4), -1.0, "soft")),
        (ValueError, lambda: cm.denoise(np.arange(64.0), method="nope")),
        (ValueError, lambda: cm.select_threshold(cm.dwt_forward(np.zeros(64), 3), "Universal")),
        (ValueError, lambda: cm.fit_arma11(np.zeros(30))),
        (ValueError, lambda: cm.forecast(arma, 1.0, None, 2)),
        (ValueError, lambda: cm.forecast(arma, 1.0, 0.5, 0)),
        (ValueError, lambda: cm.evaluate_mse(fc, np.array([1.0]))),
        (ValueError, lambda: cm.mse_comparison(("a",), np.array([1.0, 2.0]), np.array([1.0]))),
        (ValueError, lambda: cm.simulate_varma(arma, 0, seed=0)),
    ]
    raised = 0
    for exc_type, call in contracts:
        with pytest.raises(exc_type):
            call()
        raised += 1

    # CLI exit-code contract: usage errors 1, data errors 2
    cli_ok = cli_main([]) == 1 and (
        cli_main(["coherence", "--input", str(tmp_path / "missing.csv")]) == 2
    )

    ok = twin_ok and rank_one_ok and cli_ok and raised == len(contracts)
    report(
        capsys,
        ok,
        "degenerate inputs",
        f"duplicated-series partials flagged without crashing; constant series "
        f"refused by the ARMA fitter; rank-one cells all flagged; "
        f"{raised} error contracts raise their advertised exceptions; "
        f"CLI exit codes 1/2 honored",
    )
    assert twin_ok
    assert rank_one_ok
    assert cli_ok
    assert raised == len(contracts)
