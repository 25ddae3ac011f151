"""First-order ARMA/VARMA estimation, forecasting, and the MSE harness.

Estimator checks are seeded simulate-and-refit runs; forecast and residual
checks compare against the defining recursions computed with explicit loops.
The two-stage fit is checked against the same fit with both regressions
solved by ``lstsq``, its second stage against a Nelder-Mead minimization of
the same conditional sum of squares, and the white-noise collapse's
thresholds against ``scipy.stats.chi2``.
"""

import dataclasses

import numpy as np
import pytest
from conftest import assert_no_reference_cycles
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.stats import chi2

import comove as cm
from comove import varma

from comove.varma import (
    VarmaModel,
    evaluate_mse,
    fit_arma11,
    fit_varma11,
    forecast,
    mse_comparison,
    residuals,
    simulate_varma,
)
from comove.timeseries import MAX_SERIES
from comove.varma import _linear_recursion


# ---------------------------------------------------------------- models


def test_arma_model_validation():
    # an ARMA(1,1) is the p = 1 model: the same checks refuse a unit root,
    # a noninvertible theta and a zero innovation variance
    with pytest.raises(ValueError, match="phi has an eigenvalue"):
        VarmaModel(mu=[0.0], phi=[[1.0]], theta=[[0.2]], sigma=[[1.0]])
    with pytest.raises(ValueError, match="theta has an eigenvalue"):
        VarmaModel(mu=[0.0], phi=[[0.2]], theta=[[-1.0]], sigma=[[1.0]])
    with pytest.raises(ValueError, match="diagonal must be positive"):
        VarmaModel(mu=[0.0], phi=[[0.2]], theta=[[0.2]], sigma=[[0.0]])


def test_varma_model_validation():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    with pytest.raises(ValueError, match="must be \\(2, 2\\)"):
        VarmaModel(mu=np.zeros(2), phi=np.zeros((3, 2)), theta=zero, sigma=eye)
    with pytest.raises(ValueError, match="phi has an eigenvalue"):
        VarmaModel(mu=np.zeros(2), phi=1.1 * eye, theta=zero, sigma=eye)
    with pytest.raises(ValueError, match="theta has an eigenvalue"):
        VarmaModel(mu=np.zeros(2), phi=zero, theta=1.0 * eye, sigma=eye)
    with pytest.raises(ValueError, match="must be symmetric"):
        VarmaModel(
            mu=np.zeros(2),
            phi=zero,
            theta=zero,
            sigma=np.array([[1.0, 0.5], [0.2, 1.0]]),
        )
    with pytest.raises(ValueError, match="positive semidefinite"):
        VarmaModel(mu=np.zeros(2), phi=zero, theta=zero, sigma=-eye)
    with pytest.raises(ValueError, match="diagonal must be positive"):
        VarmaModel(mu=np.zeros(2), phi=zero, theta=zero, sigma=np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["mu", "phi", "theta", "sigma"])
def test_model_rejects_non_finite_entries(field, bad):
    # refused by name before any eigenvalue check, and without a warning
    # (RuntimeWarnings are errors under this suite's settings)
    fields = {
        "mu": np.zeros(2),
        "phi": 0.5 * np.eye(2),
        "theta": np.zeros((2, 2)),
        "sigma": np.eye(2),
    }
    fields[field] = fields[field].copy()
    fields[field].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{field} contains non-finite values$"):
        VarmaModel(**fields)


def test_models_default_to_no_warnings():
    m = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.1]], sigma=[[1.0]])
    assert m.warnings == ()


def _radius_cases(p):
    """Seeded p x p matrices with rho and ||A||_inf on either side of 1: each
    draw scaled to a spectral radius, then to a norm, at and around 1."""
    rng = np.random.default_rng([35, p])
    for target in (0.5, 0.999, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.001, 2.0):
        for _ in range(3):
            a = rng.standard_normal((p, p))
            yield a * (target / np.abs(np.linalg.eigvals(a)).max())
            yield a * (target / np.abs(a).sum(axis=1).max())


@pytest.mark.parametrize("p", [1, 2, 8])
def test_radius_bound_agrees_with_eigvals(monkeypatch, p):
    # _fit_two_stage shrinks where _radii reaches 1, by the factor it returns;
    # VarmaModel refuses there. Both must match eigvals exactly, and a norm at
    # or past 1 must still reach eigvals, also where rho < 1 <= ||A||_inf.
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    inside = 0.5 * np.eye(p)
    seen = set()
    for a in _radius_cases(p):
        rho = np.abs(eigvals(a)).max()
        norm = np.abs(a).sum(axis=1).max()
        seen.add((rho >= 1.0, norm >= 1.0))
        calls.clear()
        radii = varma._radii(np.array([a, inside]))
        assert bool(calls) == (norm >= varma._INSIDE)
        assert (radii[0] >= 1.0) == (rho >= 1.0)
        if rho >= 1.0:
            assert radii[0] == rho
        for field in ("phi", "theta"):
            fields = {"phi": inside, "theta": inside, field: a}
            if rho >= 1.0:
                with pytest.raises(ValueError, match=f"{field} has an eigenvalue"):
                    VarmaModel(mu=np.zeros(p), sigma=np.eye(p), **fields)
            else:
                VarmaModel(mu=np.zeros(p), sigma=np.eye(p), **fields)
    assert seen >= {(False, False), (True, True)} | ({(False, True)} if p > 1 else set())


def _sigma_cases(p):
    """Seeded symmetric p x p matrices: diagonally dominant, barely dominant,
    semidefinite but not dominant, and indefinite by a few multiples of the
    tolerance either way."""
    rng = np.random.default_rng([36, p])
    for _ in range(10):
        d = rng.uniform(1.0, 2.0, p) * 10.0 ** rng.uniform(-8, 8)
        off = rng.uniform(-1.0, 1.0, (p, p))
        off = np.triu(off, 1) + np.triu(off, 1).T
        for fill in (0.5, 1.0):
            scale = fill * d.min() / max(np.abs(off).sum(axis=1).max(), 1e-300)
            yield np.diag(d) + scale * off
        b = rng.standard_normal((p, p + 1)) * d[:, None]
        yield b @ b.T
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        for lowest in (-1e-14, -1e-12, -1e-6, 1e-6):
            lam = np.linspace(1.0, 0.1, p) * d.max()
            lam[-1] = lowest * d.max()
            s = (q * lam) @ q.T
            yield (s + s.T) / 2


@pytest.mark.parametrize("p", [1, 2, 8])
def test_sigma_bound_never_accepts_what_eigvalsh_refuses(p):
    # the dominance test settles semidefiniteness before eigvalsh; a matrix is
    # refused exactly where eigvalsh puts lambda_min below the relative tolerance
    zero = np.zeros((p, p))
    for sigma in _sigma_cases(p):
        tol = varma._SIGMA_RTOL * p * np.abs(np.diagonal(sigma)).max()
        refused = np.linalg.eigvalsh(sigma)[0] < -tol
        if refused:
            with pytest.raises(ValueError, match="positive semidefinite"):
                VarmaModel(mu=np.zeros(p), phi=zero, theta=zero, sigma=sigma)
        elif np.all(np.diagonal(sigma) > 0.0):
            VarmaModel(mu=np.zeros(p), phi=zero, theta=zero, sigma=sigma)


def test_sigma_checks_are_relative_to_its_scale():
    # the fuzz draw's sigma: lambda_min = -1.2e-7 against lambda_max = 3.4e8,
    # -3.5e-16 relative, is rounding; -1e-6 relative is not
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    lam = np.geomspace(3.4e8, 1.0, 7)
    zero = np.zeros((7, 7))
    for lowest, ok in ((-1.2e-7, True), (-1e-6 * lam[0], False)):
        lam[-1] = lowest
        sigma = (q * lam) @ q.T
        sigma = (sigma + sigma.T) / 2
        assert np.linalg.eigvalsh(sigma)[0] < -1e-10  # refused by an absolute bound
        if ok:
            VarmaModel(mu=np.zeros(7), phi=zero, theta=zero, sigma=sigma)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                VarmaModel(mu=np.zeros(7), phi=zero, theta=zero, sigma=sigma)
    # asymmetry is judged on the same scale
    sigma = np.diag([3.4e8, 2.0e8])
    VarmaModel(mu=np.zeros(2), phi=zero[:2, :2], theta=zero[:2, :2], sigma=sigma + [[0, 1e-8], [0, 0]])
    with pytest.raises(ValueError, match="must be symmetric"):
        VarmaModel(mu=np.zeros(2), phi=zero[:2, :2], theta=zero[:2, :2], sigma=sigma + [[0, 1.0], [0, 0]])


# ---------------------------------------------------------------- simulate


def test_simulate_is_deterministic():
    m = VarmaModel(mu=[0.0], phi=[[0.6]], theta=[[0.2]], sigma=[[1.0]])
    a = simulate_varma(m, 200, seed=5)
    b = simulate_varma(m, 200, seed=5)
    np.testing.assert_array_equal(a, b)
    c = simulate_varma(m, 200, seed=6)
    assert np.abs(a - c).max() > 0.0


def test_simulate_shapes():
    m1 = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.0]], sigma=[[1.0]])
    assert simulate_varma(m1, 100, seed=0).shape == (100, 1)
    m2 = VarmaModel(
        mu=np.zeros(3),
        phi=0.4 * np.eye(3),
        theta=np.zeros((3, 3)),
        sigma=np.eye(3),
    )
    assert simulate_varma(m2, 50, seed=0).shape == (50, 3)


@pytest.mark.parametrize("p", [1, 3])
def test_simulate_satisfies_recursion(p):
    # z_t = Phi z_{t-1} + eps_t + Theta eps_{t-1} from a zero state, eps drawn
    # as N(0, I) rows times the Cholesky factor of sigma
    rng = np.random.default_rng(34 + p)
    phi = rng.normal(size=(p, p))
    phi *= 0.95 / np.max(np.abs(np.linalg.eigvals(phi)))
    theta = rng.normal(size=(p, p))
    theta *= 0.8 / np.max(np.abs(np.linalg.eigvals(theta)))
    b = rng.normal(size=(p, p))
    sigma = b @ b.T + np.eye(p)
    mu = rng.normal(size=p)
    m = VarmaModel(mu=mu, phi=phi, theta=theta, sigma=sigma)
    n, burn_in, seed = 700, 500, 35  # simulate_varma's fixed burn-in
    chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(p))
    eps = np.random.default_rng(seed).standard_normal((n + burn_in, p)) @ chol.T
    z = np.zeros((n + burn_in, p))
    z[0] = eps[0]
    for t in range(1, n + burn_in):
        z[t] = phi @ z[t - 1] + eps[t] + theta @ eps[t - 1]
    want = z[burn_in:] + mu
    got = simulate_varma(m, n, seed=seed)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_simulate_respects_mean():
    m = VarmaModel(mu=[10.0], phi=[[0.3]], theta=[[0.0]], sigma=[[0.25]])
    z = simulate_varma(m, 20_000, seed=1)
    assert float(z.mean()) == pytest.approx(10.0, abs=0.05)


def test_simulate_scales_with_the_model():
    # mu c and sigma c^2 draw c times the path, bit for bit at a power of two
    m = VarmaModel(mu=[1.0, -2.0], phi=[[0.5, 0.1], [0.0, 0.3]], theta=[[0.2, 0.0], [0.1, -0.4]],
                   sigma=[[1.0, 0.3], [0.3, 2.0]])
    c = 2.0**-30
    scaled = dataclasses.replace(m, mu=m.mu * c, sigma=m.sigma * c * c)
    np.testing.assert_array_equal(simulate_varma(scaled, 300, seed=9), c * simulate_varma(m, 300, seed=9))


def test_simulate_draws_a_tiny_innovation_variance():
    # the jitter that keeps the Cholesky factor defined is relative to sigma
    m = VarmaModel(mu=[0.0], phi=[[0.0]], theta=[[0.0]], sigma=[[1e-16]])
    assert float(simulate_varma(m, 20_000, seed=3).var()) == pytest.approx(1e-16, rel=0.05)


def test_simulate_error_contracts():
    m = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.0]], sigma=[[1.0]])
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
        simulate_varma(m, 0, seed=0)


# ---------------------------------------------------------------- fitting


def test_arma_fit_recovers_parameters():
    true = VarmaModel(mu=[0.0], phi=[[0.8]], theta=[[0.3]], sigma=[[1.0]])
    z = simulate_varma(true, 4096, seed=11).ravel()
    fit = fit_arma11(z)
    assert fit.phi[0, 0] == pytest.approx(0.8, abs=0.05)
    assert fit.theta[0, 0] == pytest.approx(0.3, abs=0.05)
    assert fit.sigma[0, 0] == pytest.approx(1.0, abs=0.1)
    assert fit.warnings == ()


def test_arma_fit_is_the_p1_varma_model():
    true = VarmaModel(mu=[2.0], phi=[[0.7]], theta=[[0.2]], sigma=[[1.0]])
    x = simulate_varma(true, 600, seed=14).ravel()
    m = fit_arma11(x)
    assert isinstance(m, VarmaModel) and m.p == 1
    assert m.mu.shape == (1,)
    assert m.phi.shape == m.theta.shape == m.sigma.shape == (1, 1)
    e = residuals(m, x)
    assert e.shape == (600,)
    np.testing.assert_array_equal(e, residuals(m, x[:, None])[:, 0])
    joint = VarmaModel(
        mu=np.zeros(2), phi=0.3 * np.eye(2), theta=np.zeros((2, 2)), sigma=np.eye(2)
    )
    with pytest.raises(ValueError, match="must be \\(n, 2\\)"):
        residuals(joint, x)
    with pytest.raises(ValueError, match="diagonal must be positive"):
        VarmaModel(mu=m.mu, phi=m.phi, theta=m.theta, sigma=[[0.0]])


def test_arma_fit_two_stage_only():
    # the univariate fit is the p = 1 two-stage fit
    true = VarmaModel(mu=[0.0], phi=[[0.8]], theta=[[0.3]], sigma=[[1.0]])
    z = simulate_varma(true, 4096, seed=11).ravel()
    fit = fit_arma11(z)
    assert fit.phi[0, 0] == pytest.approx(0.8, abs=0.05)
    assert fit.theta[0, 0] == pytest.approx(0.3, abs=0.05)
    phi, theta = _lstsq_two_stage(z[:, None])
    np.testing.assert_allclose(fit.phi, phi, rtol=1e-9)
    np.testing.assert_allclose(fit.theta, theta, rtol=1e-9)


def test_arma_fit_handles_nonzero_mean():
    true = VarmaModel(mu=[50.0], phi=[[0.6]], theta=[[0.2]], sigma=[[1.0]])
    z = simulate_varma(true, 4096, seed=12).ravel()
    fit = fit_arma11(z)
    assert fit.mu[0] == pytest.approx(50.0, abs=0.5)
    assert fit.phi[0, 0] == pytest.approx(0.6, abs=0.05)


def test_arma_fit_collapses_on_white_noise():
    z = np.random.default_rng(5).normal(size=4096)
    fit = fit_arma11(z)
    assert fit.phi[0, 0] == 0.0 and fit.theta[0, 0] == 0.0
    assert len(fit.warnings) == 1
    assert "white noise" in fit.warnings[0]
    assert fit.sigma[0, 0] == pytest.approx(1.0, abs=0.05)


def test_arma_fit_keeps_genuine_structure():
    true = VarmaModel(mu=[0.0], phi=[[0.8]], theta=[[0.3]], sigma=[[1.0]])
    z = simulate_varma(true, 4096, seed=13).ravel()
    fit = fit_arma11(z)
    assert fit.phi[0, 0] != 0.0
    assert fit.warnings == ()


@pytest.mark.parametrize(
    "x,msg",
    [
        (np.zeros((60, 2)), "one-dimensional"),
        (np.zeros(30), "at least 50"),
        (np.full(60, 3.0), "constant series"),
        # constants whose mean rounds away from them, so their demeaned copy is not zero
        (np.full(100, 0.1), "^constant series"),
        (np.full(300, 0.1), "^constant series"),
        (np.full(61, 7.77), "^constant series"),
    ],
)
def test_arma_fit_error_contracts(x, msg):
    with pytest.raises(ValueError, match=msg):
        fit_arma11(x)


def test_arma_fit_rejects_nan():
    x = np.random.default_rng(0).normal(size=60)
    x[10] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_arma11(x)


def test_varma_fit_recovers_diagonal_system():
    true = VarmaModel(
        mu=np.zeros(2),
        phi=np.diag([0.7, 0.4]),
        theta=np.diag([0.2, 0.1]),
        sigma=np.eye(2),
    )
    data = simulate_varma(true, 10_000, seed=21)
    fit = fit_varma11(data)
    assert np.abs(fit.phi - true.phi).max() < 0.05
    assert np.abs(fit.theta - true.theta).max() < 0.05
    assert np.abs(fit.sigma - np.eye(2)).max() < 0.1


def test_varma_fit_recovers_coupling():
    phi = np.array([[0.5, 0.25], [0.25, 0.5]])
    true = VarmaModel(
        mu=np.zeros(2), phi=phi, theta=np.zeros((2, 2)), sigma=np.eye(2)
    )
    data = simulate_varma(true, 10_000, seed=22)
    fit = fit_varma11(data)
    assert np.abs(fit.phi - phi).max() < 0.05
    # the fitted model must itself be usable downstream
    assert max(abs(np.linalg.eigvals(fit.phi))) < 1.0
    assert max(abs(np.linalg.eigvals(fit.theta))) < 1.0


def test_varma_fit_error_contracts():
    with pytest.raises(ValueError, match="\\(n, p\\) matrix"):
        fit_varma11(np.zeros(100))
    with pytest.raises(ValueError, match="between 2 and 8"):
        fit_varma11(np.zeros((100, 1)))
    with pytest.raises(ValueError, match="at least 50"):
        fit_varma11(np.zeros((30, 2)))
    rng = np.random.default_rng(3)
    data = rng.normal(size=(100, 2))
    data[:, 1] = 7.0
    with pytest.raises(ValueError, match="constant"):
        fit_varma11(data)
    for c, n in ((0.1, 100), (0.1, 300), (7.77, 61)):
        with pytest.raises(ValueError, match="^column 1: constant series"):
            fit_varma11(np.column_stack([rng.normal(size=n), np.full(n, c)]))
    data[40, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_varma11(data)


def _ar_panel(rng, n, p):
    """(n, p) independent AR(1) columns with coefficient 0.5."""
    x = rng.standard_normal((n, p))
    for t in range(1, n):
        x[t] += 0.5 * x[t - 1]
    return x


_COLLINEAR_KINDS = {
    "duplicate": lambda x, lagged, t: x[:, 0],
    "affine": lambda x, lagged, t: 3.0 * x[:, 0] + 1.0,
    "lagged-by-5": lambda x, lagged, t: lagged[:, 0],
    "sum-of-two": lambda x, lagged, t: x[:, 0] + x[:, 1],
    "sawtooth-7": lambda x, lagged, t: t % 7,
    "trend": lambda x, lagged, t: 0.01 * t,
}


@pytest.mark.parametrize(
    "kind, p",
    [(kind, p) for kind in _COLLINEAR_KINDS for p in range(3 if kind == "sum-of-two" else 2, 9)],
)
def test_varma_fit_rejects_collinear_series(kind, p):
    # the last column is an exact linear function of the other columns or of
    # its own lags; n = 300 gives a long AR of order >= 17, past the lag of 7
    n = 300
    base = _ar_panel(np.random.default_rng([41, p, list(_COLLINEAR_KINDS).index(kind)]), n + 5, p)
    x = base[5:].copy()
    x[:, -1] = _COLLINEAR_KINDS[kind](x, base[:n], np.arange(n, dtype=float))
    with pytest.raises(ValueError, match="collinear") as info:
        fit_varma11(x)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def _lstsq_two_stage(x):
    """The two-stage fit with both regressions solved by lstsq, shrinkage included."""
    n, p = x.shape
    z = x - x.mean(axis=0)
    m = varma._long_ar_order(n, p)
    design = np.column_stack([z[m - k - 1 : n - k - 1] for k in range(m)])
    beta, *_ = np.linalg.lstsq(design, z[m:], rcond=None)
    ehat = z[m:] - design @ beta
    w = np.column_stack([z[m:-1], ehat[:-1]])
    coef, *_ = np.linalg.lstsq(w, z[m + 1 :], rcond=None)
    phi, theta = coef[:p].T.copy(), coef[p:].T.copy()
    for a in (phi, theta):
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        if rho >= 1.0:
            a *= (1.0 - 1e-4) / rho
    return phi, theta


@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_varma_fit_matches_lstsq_on_near_deterministic_column(p):
    # a sine with 1e-6 noise squares cond(D) ~ 3e6 into a Gram near 1e13;
    # unrefined normal equations miss the lstsq coefficients by 8e-3 to 5.3
    # on these cases, two refinement steps by at most 4e-5. Some draws are
    # rejected as collinear; the first three of seeds 0..9 that fit are compared.
    n, compared = 60, 0
    for seed in range(10):
        rng = np.random.default_rng([37, p, seed])
        x = _ar_panel(rng, n, p)
        x[:, -1] = np.sin(2 * np.pi * np.arange(n) / 37) + 1e-6 * rng.standard_normal(n)
        try:
            fit = fit_varma11(x)
        except ValueError:
            continue
        phi, theta = _lstsq_two_stage(x)
        assert np.abs(fit.phi - phi).max() <= 1e-3, seed
        assert np.abs(fit.theta - theta).max() <= 1e-3, seed
        compared += 1
        if compared == 3:
            break
    assert compared == 3


def _varma_panel(p, n):
    """A seeded VARMA(1,1) path with coupled series, the long-AR tests' input."""
    true = VarmaModel(
        mu=np.zeros(p),
        phi=0.6 * np.eye(p) + 0.15 * np.eye(p, k=1),
        theta=0.3 * np.eye(p),
        sigma=np.eye(p) + 0.25,
    )
    return simulate_varma(true, n, seed=42)


@pytest.mark.parametrize("p", range(2, 9))
def test_fits_do_not_depend_on_memory_layout(p):
    # Column means and products round by memory order, so each fit reads a
    # C-ordered copy of its block: a Fortran-ordered panel or a strided
    # column gives the digits of a contiguous one.
    panel = 100.0 + _varma_panel(p, 1461)
    fits = [fit_varma11(panel), fit_varma11(np.asfortranarray(panel))]
    for k in range(p):
        fits += [fit_arma11(panel[:, k]), fit_arma11(panel[:, k].copy())]
    for a, b in zip(fits[::2], fits[1::2]):
        for name in ("mu", "phi", "theta", "sigma"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.warnings == b.warnings


def _held_out_winners(data, fit_rows):
    """mse_comparison's verdicts on one ARMA per column and the joint VARMA,
    fitted on the first fit_rows rows and scored on the rest."""
    win, future = data[:fit_rows], data[fit_rows:]
    arma = []
    for k in range(data.shape[1]):
        model = fit_arma11(win[:, k])
        e = residuals(model, win[:, k])
        arma.append(evaluate_mse(forecast(model, win[-1, k], e[-1], len(future)), future[:, k]).cum_mse[0])
    joint = fit_varma11(win)
    e = residuals(joint, win)
    joint_mse = evaluate_mse(forecast(joint, win[-1], e[-1], len(future)), future).cum_mse
    names = tuple(f"s{k}" for k in range(data.shape[1]))
    return mse_comparison(names, np.array(arma), joint_mse)


@pytest.mark.parametrize("factor", [2.0**17, 2.0**-17, 2.0**40, 2.0**-40])
def test_fits_do_not_depend_on_power_of_two_units(factor):
    # each fit runs in power-of-two column units, so a column rescaled by a
    # power of two passes the same collinearity checks and maps back exactly:
    # Phi -> D Phi D^-1, Theta -> D Theta D^-1, Sigma -> D Sigma D
    panel = np.cumsum(np.random.default_rng(39).standard_normal((400, 4)), axis=0)
    d = np.array([1.0, factor, 1.0, 1.0])
    base, scaled = fit_varma11(panel[:370]), fit_varma11(panel[:370] * d)
    assert np.array_equal(scaled.phi, d[:, None] * base.phi / d)
    assert np.array_equal(scaled.theta, d[:, None] * base.theta / d)
    assert np.array_equal(scaled.sigma, d[:, None] * base.sigma * d)
    assert scaled.warnings == base.warnings
    want = _held_out_winners(panel, 370)
    assert _held_out_winners(panel * d, 370) == want
    assert _held_out_winners(panel * 2.0**-20, 370) == want and "tie" not in want


@pytest.mark.parametrize("factor", [1e160, 1e200, 1e-300])
def test_fits_refuse_an_innovation_variance_outside_float64_by_column(factor):
    # the fit runs in power-of-two units, so only the variance mapped back
    # leaves float64's range; it is refused by column, and the suite's
    # RuntimeWarning filter fails the test on an overflow warning
    walk = 100.0 + np.cumsum(np.random.default_rng(6).standard_normal((500, 3)), axis=0)
    walk[:, 1] *= factor
    with pytest.raises(ValueError, match="^column 1: innovation variance is outside float64's range"):
        fit_varma11(walk)
    with pytest.raises(ValueError, match="^innovation variance is outside float64's range"):
        fit_arma11(walk[:, 1])
    fit_arma11(walk[:, 0])


def _lstsq_long_ar_residuals(z, m):
    n = len(z)
    design = np.column_stack([z[m - k - 1 : n - k - 1] for k in range(m)])
    beta, *_ = np.linalg.lstsq(design, z[m:], rcond=None)
    return z[m:] - design @ beta


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_long_ar_residuals_match_lstsq(p):
    # n = 61 caps the order at (n - 2) // (2p + 1) for p >= 2
    for n in (61, 1461):
        z = _varma_panel(p, n)
        m = varma._long_ar_order(n, p)
        want = _lstsq_long_ar_residuals(z, m)
        got = varma._long_ar_residuals(z, m)
        assert got.shape == want.shape, n
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), n


def _refined_long_ar(z, m, steps):
    """The long AR's residuals after exactly ``steps`` refinement steps, and
    the condition bound ||G||_F ||inv(L)||_F^2 of its Gram G = L L', checked
    against cond(G)."""
    p = z.shape[1]
    lagged = varma._lagged_design(z, m)
    y, design = lagged[:, :p], lagged[:, p:]
    gram, cross = varma._lag_gram(lagged, p)
    inv = varma._lower_inverse(np.linalg.cholesky(gram))
    beta = inv.T @ (inv @ cross)
    for _ in range(steps):
        beta = beta + inv.T @ (inv @ (design.T @ (y - design @ beta)))
    bound = np.sqrt(np.sum(gram**2)) * np.sum(inv**2)
    assert np.linalg.cond(gram) <= bound
    return y - design @ beta, bound


def test_long_ar_refines_once_below_the_condition_switch_and_twice_above():
    # one refinement step reaches rounding when cond(G) <= eps^(-1/2); the
    # lstsq-test panels sit below that and must take exactly one step
    switch = np.finfo(float).eps ** -0.5
    differs = False
    for p in (1, 2, 5, 8):
        for n in (61, 1461):
            z = _varma_panel(p, n)
            m = varma._long_ar_order(n, p)
            once, bound = _refined_long_ar(z, m, 1)
            assert bound <= switch, (p, n)
            assert np.array_equal(varma._long_ar_residuals(z, m), once), (p, n)
            differs |= not np.array_equal(_refined_long_ar(z, m, 2)[0], once)
    assert differs  # the panels tell one step from two
    # a sine plus 1e-6 of an AR(0.99) column: a Gram with bound near 7e14 that
    # the pivot check accepts (squared pivot ratio near 5e11); one step misses
    # lstsq by 3.6e-6 to 3.5e-5 relative over seeds 0..19, two by at most 4e-7
    n = 1461
    m = varma._long_ar_order(n, 1)
    for seed in range(3):
        rng = np.random.default_rng([44, seed])
        x = np.sin(2 * np.pi * np.arange(n) / 37) + 1e-6 * _linear_recursion(rng.standard_normal(n), 0.99)
        z = (x - x.mean())[:, None]
        want = _lstsq_long_ar_residuals(z, m)
        tol = 1e-6 * np.abs(want).max()
        once, bound = _refined_long_ar(z, m, 1)
        twice, _ = _refined_long_ar(z, m, 2)
        assert bound > 1e6 * switch, seed
        assert np.abs(once - want).max() > tol, seed
        assert np.abs(twice - want).max() <= tol, seed
        assert np.array_equal(varma._long_ar_residuals(z, m), twice), seed


@pytest.mark.parametrize("scale", [1.0, 2.0**17, 2.0**-17], ids=["1", "2^17", "2^-17"])
@pytest.mark.parametrize("p", range(1, 9))
def test_lag_gram_matches_products(p, scale):
    # the refinement against the explicit design hides a wrong Gram from the
    # residual tests, so the lag-covariance D'D and D'y are checked entrywise
    # against the products, relative to sqrt(G_ii G_jj); one column is scaled
    for n in (50, 61, 1461):
        z = _ar_panel(np.random.default_rng([43, p, n]), n, p)
        z[:, -1] *= scale
        z -= z.mean(axis=0)
        for m in (1, varma._long_ar_order(n, p), (n - 2) // (2 * p + 1)):
            lagged = varma._lagged_design(z, m)
            y, design = lagged[:, :p], lagged[:, p:]
            gram, cross = varma._lag_gram(lagged, p)
            want_gram, want_cross = design.T @ design, design.T @ y
            diag = np.diagonal(want_gram)
            case = f"n = {n}, m = {m}"
            assert gram.shape == want_gram.shape and cross.shape == want_cross.shape, case
            tol = 1e-13 * np.sqrt(np.outer(diag, diag))
            assert np.all(np.abs(gram - want_gram) <= tol), case
            tol = 1e-13 * np.sqrt(np.outer(diag, np.diagonal(y.T @ y)))
            assert np.all(np.abs(cross - want_cross) <= tol), case


@pytest.mark.parametrize("size", [1, 31, 32, 33, 64, 256, 257])
def test_lower_inverse_inverts_cholesky_factors(size):
    # sizes straddle the 32-row blocks the recursion inverts directly
    design = np.random.default_rng([19, size]).standard_normal((2 * size + 5, size))
    low = np.linalg.cholesky(design.T @ design)
    got = varma._lower_inverse(low)
    assert np.abs(got @ low - np.eye(size)).max() <= 1e-12
    want = np.linalg.inv(low)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fits_solve_the_long_ar_without_lu(monkeypatch):
    # the Gram is factored once, by Cholesky; no LU solve of it remains
    def _no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    x = _ar_panel(np.random.default_rng(23), 400, 4)
    monkeypatch.setattr(np.linalg, "solve", _no_solve)
    fit_arma11(x[:, 0])
    fit_varma11(x)


_DETERMINISTIC = {  # series, and whether the Gram check refuses its long AR
    "sine-37": (lambda t, rng: np.sin(2 * np.pi * t / 37), True),
    "trend": (lambda t, rng: 0.01 * t, True),
    "sawtooth-7": (lambda t, rng: t % 7, True),
    # the pivot ratio squared is about 4.5e11 at n = 1461, under the 1e12 limit
    "sine-37+1e-6": (
        lambda t, rng: np.sin(2 * np.pi * t / 37) + 1e-6 * rng.standard_normal(t.size),
        False,
    ),
}


@pytest.mark.parametrize("kind", list(_DETERMINISTIC))
def test_arma_fit_matches_lstsq_route_on_deterministic_series(kind):
    # a series its own lags predict exactly is refused with the collinearity
    # error; one the Gram check accepts is fitted as the all-lstsq route fits it
    n = 1461
    series, refused = _DETERMINISTIC[kind]
    x = series(np.arange(n, dtype=float), np.random.default_rng(37))
    z = x - x.mean()
    if refused:
        with pytest.raises(ValueError, match="collinear"):
            varma._long_ar_residuals(z[:, None], varma._long_ar_order(n, 1))
        with pytest.raises(ValueError, match="collinear") as info:
            fit_arma11(x)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        return
    got = fit_arma11(x)
    phi, theta = _lstsq_two_stage(x[:, None])
    e = lfilter([1.0], [1.0, theta[0, 0]], z[1:] - phi[0, 0] * z[:-1])
    np.testing.assert_allclose(got.phi, phi, rtol=1e-6, err_msg="phi")
    np.testing.assert_allclose(got.theta, theta, rtol=1e-6, err_msg="theta")
    np.testing.assert_allclose(got.sigma, [[e @ e / (n - 1)]], rtol=1e-6, err_msg="sigma")


def test_white_noise_thresholds_are_chi2_points():
    # one collapse rule for every p: 2 p^2 fitted coefficients
    # one point for each p up to the series limit, so the table cannot fall short of it
    want = chi2.ppf(0.99, 2 * np.arange(1, MAX_SERIES + 1) ** 2)
    np.testing.assert_allclose(varma._WHITE_NOISE_CHI2_99, want, rtol=1e-3)


def test_varma_fit_collapses_on_white_noise():
    z = np.random.default_rng(5).normal(size=(4096, 3))
    fit = fit_varma11(z)
    assert np.all(fit.phi == 0.0) and np.all(fit.theta == 0.0)
    assert fit.warnings == ("no ARMA structure significant at the 1% level; collapsed to white noise",)
    assert np.abs(fit.sigma - np.eye(3)).max() < 0.05


def test_varma_fit_keeps_coupled_structure():
    true = VarmaModel(
        mu=np.zeros(3),
        phi=np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.2], [0.2, 0.0, 0.3]]),
        theta=0.2 * np.eye(3),
        sigma=np.eye(3) + 0.3,
    )
    fit = fit_varma11(simulate_varma(true, 4096, seed=6))
    assert fit.warnings == ()
    assert np.abs(fit.phi - true.phi).max() < 0.1


@pytest.mark.parametrize("p", [1, 3, 8])
def test_lagged_design_matches_column_stack(p):
    z = np.random.default_rng(8).normal(size=(120, p))
    if p == 1:
        z = z[:, 0]
    n = len(z)
    for m in (1, varma._long_ar_order(n, p), (n - 2) // (2 * p + 1)):
        want = np.column_stack([z[m - k : n - k] for k in range(m + 1)])
        for layout in (z, np.asfortranarray(z)):
            got = varma._lagged_design(layout, m)
            assert got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want), m


# ---------------------------------------------------------------- residuals


def test_arma_residuals_satisfy_recursion():
    m = VarmaModel(mu=[1.0], phi=[[0.6]], theta=[[0.25]], sigma=[[1.0]])
    z = simulate_varma(m, 300, seed=30).ravel()
    e = residuals(m, z)
    assert e.shape == (300,)
    want = np.zeros(300)
    want[0] = 0.0
    zc = z - m.mu[0]
    for t in range(1, 300):
        want[t] = zc[t] - m.phi[0, 0] * zc[t - 1] - m.theta[0, 0] * want[t - 1]
    np.testing.assert_allclose(e[1:], want[1:], atol=1e-10)


def test_varma_residuals_satisfy_recursion():
    m = VarmaModel(
        mu=np.array([1.0, -2.0]),
        phi=np.array([[0.5, 0.2], [0.1, 0.4]]),
        theta=np.array([[0.2, 0.0], [0.0, 0.1]]),
        sigma=np.eye(2),
    )
    z = simulate_varma(m, 200, seed=31)
    e = residuals(m, z)
    assert e.shape == (200, 2)
    zc = z - m.mu
    want = np.zeros_like(zc)
    for t in range(1, 200):
        want[t] = zc[t] - m.phi @ zc[t - 1] - m.theta @ want[t - 1]
    np.testing.assert_allclose(e[1:], want[1:], atol=1e-10)


def test_arma_residuals_match_lfilter():
    m = VarmaModel(mu=[0.4], phi=[[0.8]], theta=[[-0.7]], sigma=[[2.0]])
    x = simulate_varma(m, 3000, seed=33).ravel()
    z = x - m.mu[0]
    want = np.zeros_like(z)
    want[1:] = lfilter([1.0], [1.0, m.theta[0, 0]], z[1:] - m.phi[0, 0] * z[:-1])
    e = residuals(m, x)
    assert e[0] == 0.0
    assert np.abs(e - want).max() <= 1e-12 * np.abs(want).max()


def test_residuals_recover_innovations():
    m = VarmaModel(mu=[0.0], phi=[[0.7]], theta=[[0.2]], sigma=[[1.0]])
    z = simulate_varma(m, 5000, seed=32).ravel()
    e = residuals(m, z)
    # after the startup transient the filtered residuals are the shocks
    assert float(np.var(e[100:])) == pytest.approx(1.0, abs=0.05)


def test_residuals_shape_contracts():
    arma = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.1]], sigma=[[1.0]])
    with pytest.raises(ValueError, match="must be \\(n, 1\\)"):
        residuals(arma, np.zeros((50, 2)))
    varma = VarmaModel(
        mu=np.zeros(2),
        phi=0.3 * np.eye(2),
        theta=np.zeros((2, 2)),
        sigma=np.eye(2),
    )
    with pytest.raises(ValueError, match="must be \\(n, 2\\)"):
        residuals(varma, np.zeros((50, 3)))


# ---------------------------------------------------------------- forecast


def test_arma_forecast_closed_form():
    m = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.2]], sigma=[[1.0]])
    fc = forecast(m, y_last=2.0, e_last=1.0, horizon=2)
    assert fc.points.shape == fc.lower.shape == fc.upper.shape == (2, 1)
    # one step: phi*y + theta*e; two steps: phi * (one step)
    np.testing.assert_allclose(fc.points.ravel(), [1.2, 0.6], atol=1e-12)
    # psi_1 = phi + theta = 0.7, so var_2 = 1 + 0.49
    np.testing.assert_allclose((((fc.upper - fc.points) / 1.96) ** 2).ravel(), [1.0, 1.49], atol=1e-12)
    np.testing.assert_allclose(
        fc.lower.ravel(), fc.points.ravel() - 1.96 * np.sqrt([1.0, 1.49]), atol=1e-12
    )
    np.testing.assert_allclose(
        fc.upper.ravel(), fc.points.ravel() + 1.96 * np.sqrt([1.0, 1.49]), atol=1e-12
    )


def test_arma_forecast_reverts_to_mean():
    m = VarmaModel(mu=[5.0], phi=[[0.5]], theta=[[0.0]], sigma=[[1.0]])
    fc = forecast(m, y_last=7.0, e_last=0.0, horizon=3)
    np.testing.assert_allclose(fc.points.ravel(), [6.0, 5.5, 5.25], atol=1e-12)


def test_var_forecast_closed_form():
    phi = 0.5 * np.eye(2)
    m = VarmaModel(
        mu=np.zeros(2), phi=phi, theta=np.zeros((2, 2)), sigma=np.eye(2)
    )
    fc = forecast(m, y_last=np.array([2.0, -1.0]), e_last=np.zeros(2), horizon=2)
    np.testing.assert_allclose(fc.points, [[1.0, -0.5], [0.5, -0.25]], atol=1e-12)
    var = ((fc.upper - fc.points) / 1.96) ** 2
    np.testing.assert_allclose(var[0], np.diag(np.eye(2)), atol=1e-12)
    np.testing.assert_allclose(var[1], np.diag(np.eye(2) + phi @ phi.T), atol=1e-12)


def test_varma_forecast_variance_accumulates_psi_weights():
    m = VarmaModel(
        mu=np.zeros(2),
        phi=np.array([[0.5, 0.2], [0.0, 0.4]]),
        theta=np.array([[0.1, 0.0], [0.05, 0.2]]),
        sigma=np.array([[1.0, 0.3], [0.3, 2.0]]),
    )
    h = 4
    fc = forecast(m, np.zeros(2), np.zeros(2), horizon=h)
    # psi_0 = I, psi_k = phi^(k-1) (phi + theta) for a first-order model
    psi = [np.eye(2)]
    for k in range(1, h):
        psi.append(np.linalg.matrix_power(m.phi, k - 1) @ (m.phi + m.theta))
    acc = np.zeros((2, 2))
    for k in range(h):
        acc = acc + psi[k] @ m.sigma @ psi[k].T
        np.testing.assert_allclose(((fc.upper[k] - fc.points[k]) / 1.96) ** 2, np.diag(acc), atol=1e-10)
        np.testing.assert_allclose(((fc.points[k] - fc.lower[k]) / 1.96) ** 2, np.diag(acc), atol=1e-10)


def test_forecast_error_contracts():
    m = VarmaModel(
        mu=np.zeros(2),
        phi=0.3 * np.eye(2),
        theta=np.zeros((2, 2)),
        sigma=np.eye(2),
    )
    with pytest.raises(ValueError, match=r"^horizon must be a positive integer, got 0$"):
        forecast(m, np.zeros(2), np.zeros(2), horizon=0)
    with pytest.raises(ValueError, match="y_last must have shape"):
        forecast(m, np.zeros(3), np.zeros(2), horizon=2)
    with pytest.raises(ValueError, match="e_last must have shape"):
        forecast(m, np.zeros(2), np.zeros(3), horizon=2)


def _refusal_cases():
    walk = np.cumsum(np.random.default_rng(43).standard_normal(300))
    arma = fit_arma11(walk)
    var = VarmaModel(mu=np.zeros(2), phi=0.3 * np.eye(2), theta=np.zeros((2, 2)), sigma=np.eye(2))
    fc = forecast(arma, walk[-1], 0.0, 3)
    return {
        "arma-y_last": (lambda: forecast(arma, np.nan, 0.0, 3), "^y_last contains non-finite values$"),
        "arma-e_last": (lambda: forecast(arma, walk[-1], -np.inf, 3), "^e_last contains non-finite values$"),
        "varma-y_last": (lambda: forecast(var, [0.0, np.inf], np.zeros(2), 3), "^y_last contains non-finite"),
        "residuals": (lambda: residuals(arma, np.where(np.arange(300) == 150, np.nan, walk)),
                      "^data contains non-finite values$"),
        "evaluate_mse": (lambda: evaluate_mse(fc, [1.0, np.nan, 2.0]),
                         "^actual contains non-finite values in its first 3 rows$"),
    }


@pytest.mark.parametrize("case", list(_refusal_cases()))
def test_library_calls_refuse_non_finite_input(case):
    # a NaN or inf is refused by the argument's name, not carried into the output
    call, message = _refusal_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()


def _fractional_count_cases():
    x = np.random.default_rng(44).standard_normal(256)
    arma = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.2]], sigma=[[1.0]])
    grid = cm.make_scale_grid(64, 1.0)
    field = cm.coherence_matrix_field([cm.cwt_morlet(x[:64], 1.0, grid), cm.cwt_morlet(x[64:128], 1.0, grid)])
    level = r"^level must be a positive integer, got 2\.5$"
    level_true, seed = "^level must be a positive integer, got True$", "^seed must be a non-negative integer, got "
    return {
        "wpt_forward": (lambda: cm.wpt_forward(x, 2.5), level),
        "method_sweep": (lambda: cm.method_sweep(x, level=2.5), level),
        "denoise": (lambda: cm.denoise(x, level=2.5), level),
        "forecast": (lambda: forecast(arma, 1.0, 0.0, 2.5), r"^horizon must be a positive integer, got 2\.5$"),
        "simulate_varma": (lambda: simulate_varma(arma, 2.5, 1), r"^n must be a positive integer, got 2\.5$"),
        "target-1.0": (lambda: cm.coherence_result(field, 1.0),
                       r"^target must be an integer index below 2, got 1\.0$"),
        "target-0.5": (lambda: cm.coherence_result(field, 0.5),
                       r"^target must be an integer index below 2, got 0\.5$"),
        # a bool is an int to Python, and each call took True as 1
        "wpt_forward-True": (lambda: cm.wpt_forward(x, True), level_true),
        "method_sweep-True": (lambda: cm.method_sweep(x, level=True), level_true),
        "forecast-True": (lambda: forecast(arma, 1.0, 0.0, True), r"^horizon must be a positive integer, got True$"),
        "simulate_varma-True": (lambda: simulate_varma(arma, True, 1), r"^n must be a positive integer, got True$"),
        "ScaleGrid-True": (lambda: cm.ScaleGrid(64, 1.0, 2.0, 0.25, True),
                           r"^num_scales must be a positive integer, got True$"),
        "target-True": (lambda: cm.coherence_result(field, True),
                        r"^target must be an integer index below 2, got True$"),
        "seed-2.5": (lambda: simulate_varma(arma, 10, seed=2.5), seed + r"2\.5$"),
        "seed-a": (lambda: simulate_varma(arma, 10, seed="a"), seed + "'a'$"),
        "seed-negative": (lambda: simulate_varma(arma, 10, seed=-1), seed + "-1$"),
        "seed-True": (lambda: simulate_varma(arma, 10, seed=True), seed + "True$"),
        # one check states every count's rule: True, a whole float and the
        # first value below the range are refused for each argument
        "wpt_forward-2.0": (lambda: cm.wpt_forward(x, 2.0), r"^level must be a positive integer, got 2\.0$"),
        "wpt_forward-0": (lambda: cm.wpt_forward(x, 0), "^level must be a positive integer, got 0$"),
        "method_sweep-2.0": (lambda: cm.method_sweep(x, level=2.0), r"^level must be a positive integer, got 2\.0$"),
        "method_sweep-0": (lambda: cm.method_sweep(x, level=0), "^level must be a positive integer, got 0$"),
        "denoise-True": (lambda: cm.denoise(x, level=True), level_true),
        "denoise-2.0": (lambda: cm.denoise(x, level=2.0), r"^level must be a positive integer, got 2\.0$"),
        "denoise-0": (lambda: cm.denoise(x, level=0), "^level must be a positive integer, got 0$"),
        "forecast-2.0": (lambda: forecast(arma, 1.0, 0.0, 2.0), r"^horizon must be a positive integer, got 2\.0$"),
        "forecast-0": (lambda: forecast(arma, 1.0, 0.0, 0), "^horizon must be a positive integer, got 0$"),
        "simulate_varma-2.0": (lambda: simulate_varma(arma, 2.0, 1), r"^n must be a positive integer, got 2\.0$"),
        "simulate_varma-0": (lambda: simulate_varma(arma, 0, 1), "^n must be a positive integer, got 0$"),
        "ScaleGrid-2.0": (lambda: cm.ScaleGrid(64, 1.0, 2.0, 0.25, 2.0),
                          r"^num_scales must be a positive integer, got 2\.0$"),
        "ScaleGrid-0": (lambda: cm.ScaleGrid(64, 1.0, 2.0, 0.25, 0), "^num_scales must be a positive integer, got 0$"),
        # an index's range starts at 0, so its first value past the range is p
        "target-2.0": (lambda: cm.coherence_result(field, 2.0), r"^target must be an integer index below 2, got 2\.0$"),
        "target-2": (lambda: cm.coherence_result(field, 2), "^target must be an integer index below 2, got 2$"),
        "seed-2.0": (lambda: simulate_varma(arma, 10, seed=2.0), seed + r"2\.0$"),
    }


@pytest.mark.parametrize("case", list(_fractional_count_cases()))
def test_library_calls_refuse_a_fractional_count(case):
    # a count, index or seed must be an int or np.integer other than a bool, as
    # ScaleGrid requires of its own, and is refused by the argument's name
    # before numpy sees it
    call, message = _fractional_count_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_one_step_forecast_errors_are_filtered_residuals():
    # forecasting one step from each time point and filtering residuals
    # through the realized path are the same computation
    m = VarmaModel(
        mu=np.zeros(2),
        phi=np.array([[0.6, 0.3], [0.3, 0.6]]),
        theta=np.zeros((2, 2)),
        sigma=np.eye(2),
    )
    path = simulate_varma(m, 286, seed=40)
    res = residuals(m, path)
    e = np.zeros(2)
    for t in range(256, 286):
        fc = forecast(m, path[t - 1], e, horizon=1)
        np.testing.assert_allclose(path[t] - fc.points[0], res[t], atol=1e-10)


# ---------------------------------------------------------------- scoring


def test_evaluate_mse_hand_values():
    m = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.2]], sigma=[[1.0]])
    fc = forecast(m, y_last=2.0, e_last=1.0, horizon=2)
    ev = evaluate_mse(fc, np.array([1.0, 1.0]))
    # squared errors 0.04 and 0.16, averaged over horizons 1..H
    np.testing.assert_allclose(ev.cum_mse.ravel(), [0.1], atol=1e-12)


def test_evaluate_mse_ignores_extra_rows():
    m = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.2]], sigma=[[1.0]])
    fc = forecast(m, y_last=2.0, e_last=1.0, horizon=2)
    a = evaluate_mse(fc, np.array([1.0, 1.0]))
    b = evaluate_mse(fc, np.array([1.0, 1.0, 99.0, -99.0]))
    np.testing.assert_allclose(a.cum_mse, b.cum_mse, atol=0)
    # only the scored rows must be finite
    np.testing.assert_allclose(a.cum_mse, evaluate_mse(fc, np.array([1.0, 1.0, np.nan])).cum_mse, atol=0)


def test_evaluate_mse_error_contracts():
    m = VarmaModel(mu=[0.0], phi=[[0.5]], theta=[[0.2]], sigma=[[1.0]])
    fc = forecast(m, y_last=2.0, e_last=1.0, horizon=3)
    with pytest.raises(ValueError, match="realized rows"):
        evaluate_mse(fc, np.array([1.0, 1.0]))
    mv = VarmaModel(
        mu=np.zeros(2),
        phi=0.3 * np.eye(2),
        theta=np.zeros((2, 2)),
        sigma=np.eye(2),
    )
    fcv = forecast(mv, np.zeros(2), np.zeros(2), horizon=2)
    with pytest.raises(ValueError, match="series"):
        evaluate_mse(fcv, np.zeros((2, 3)))


def test_mse_comparison_winners():
    # one verdict per series, in the names' order
    verdicts = mse_comparison(
        ("a", "b", "c"),
        np.array([1.0, 2.0, 1.5]),
        np.array([1.0, 1.5, 2.0]),
    )
    assert verdicts == ("tie", "VARMA", "ARMA")


def test_mse_comparison_tie_tolerance():
    assert mse_comparison(("a",), np.array([1.0]), np.array([1.0 + 1e-13])) == ("tie",)


def test_mse_comparison_winners_do_not_depend_on_units():
    # a tie is relative to the larger MSE, so scaling both by 2**20 or
    # 2**-20 keeps every winner; gaps run from 1e-9 to 1e-3 relative
    rng = np.random.default_rng(34)
    arma = rng.uniform(0.5, 2.0, 16)
    varma_mse = arma * (1.0 + rng.choice([-1.0, 1.0], 16) * 10.0 ** rng.uniform(-9, -3, 16))
    names = tuple(f"s{j}" for j in range(16))
    want = mse_comparison(names, arma, varma_mse)
    assert "tie" not in want and len(set(want)) == 2
    for scale in (2.0**20, 2.0**-20):
        assert mse_comparison(names, arma * scale, varma_mse * scale) == want


def test_mse_comparison_length_mismatch():
    with pytest.raises(ValueError, match="matching lengths"):
        mse_comparison(("a",), np.array([1.0, 2.0]), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", ["arma", "varma"])
def test_mse_comparison_refuses_a_non_finite_mse(bad, family):
    # every comparison with NaN is false and an inf MSE passes the tie test, so neither ranks
    mse = {"arma": np.array([1.0, 2.0]), "varma": np.array([1.0, 1.5])}
    mse[family][1] = bad
    with pytest.raises(ValueError, match="series 'b' has a non-finite MSE"):
        mse_comparison(("a", "b"), mse["arma"], mse["varma"])


# ---------------------------------------------------------------- prefix scan


def _scan_matrix(kind: str, p: int) -> np.ndarray:
    rng = np.random.default_rng(36 + p)
    if kind == "nonnormal":
        # eigenvalues near 0.9 under large upper couplings: powers grow by
        # orders of magnitude before they decay
        return np.triu(rng.normal(scale=3.0, size=(p, p)), 1) + np.diag(rng.uniform(0.8, 0.99, p))
    a = rng.normal(size=(p, p))
    a *= 0.9999 / np.max(np.abs(np.linalg.eigvals(a)))
    return -a if kind == "negated" else a


@pytest.mark.parametrize("kind", ["random", "negated", "nonnormal"])
@pytest.mark.parametrize("p", [1, 2, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 1461, 4097])
def test_linear_recursion_matches_loop(kind, p, n):
    a = _scan_matrix(kind, p)
    u = np.random.default_rng(n).normal(size=(n, p))
    want = u.copy()
    for t in range(1, n):
        want[t] = u[t] + a @ want[t - 1]
    x = _linear_recursion(u, a)
    assert x.shape == (n, p)
    assert np.abs(x - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 50, 1461])
def test_linear_recursion_scalar_matches_loop(n):
    u = np.random.default_rng(n).normal(size=(n, 2))
    want = u.copy()
    for t in range(1, n):
        want[t] = u[t] - 0.9999 * want[t - 1]
    for a in (-0.9999, np.array([[-0.9999]])):
        x = _linear_recursion(u, a)
        assert np.abs(x - want).max() <= 1e-11 * np.abs(want).max()
    # a 1 x 1 matrix gives the same numbers as the matmul it replaces
    col = u[:, :1]
    a, x, k = np.array([[-0.9999]]), col.copy(), 1
    while k < n:
        x[k:] += x[:-k] @ a.T
        a, k = a @ a, 2 * k
    np.testing.assert_array_equal(_linear_recursion(col, np.array([[-0.9999]])), x)


# ---------------------------------------------------------------- second-stage CSS


# The second stage refines the long AR's residual proxies into (1,1)
# coefficients by minimizing a conditional sum of squares, the CSS of z_t on
# z_{t-1} and the lagged proxy; Nelder-Mead on that CSS is the oracle here.
_LIMIT = 1.0 - 1e-4
_COLLAPSED = "no ARMA structure significant at the 1% level; collapsed to white noise"
_KINDS = ("unit-root", "random-walk", "white-noise", "ridge", "n50", "t3")


def _stress_series(kind, seed):
    """Seeded series on which a (1,1) CSS is flat, near a bound or short."""
    rng = np.random.default_rng([_KINDS.index(kind), seed])
    n, burn_in = 1461, 300
    if kind == "random-walk":
        return np.cumsum(rng.normal(size=n))
    if kind == "white-noise":
        return rng.normal(size=n)
    if kind == "unit-root":
        phi, theta = rng.uniform(0.97, 0.999), rng.uniform(-0.9, 0.9)
    elif kind == "ridge":
        phi = rng.uniform(-0.95, 0.95)
        theta = -phi
    else:
        phi, theta = rng.uniform(-0.9, 0.9, 2)
        n = 50 if kind == "n50" else n
    eps = rng.standard_t(3, size=n + burn_in) if kind == "t3" else rng.normal(size=n + burn_in)
    u = eps.copy()
    u[1:] += theta * eps[:-1]
    return lfilter([1.0], [1.0, -phi], u)[burn_in:]


def _second_stage_css(x):
    """The second-stage CSS as a function of (phi, theta), with its regressand.

    The residual proxies come from the long AR solved by ``lstsq``.
    """
    n = x.size
    z = x - x.mean()
    m = varma._long_ar_order(n, 1)
    design = np.column_stack([z[m - k - 1 : n - k - 1] for k in range(m)])
    beta, *_ = np.linalg.lstsq(design, z[m:], rcond=None)
    ehat = z[m:] - design @ beta
    y, z_lag, e_lag = z[m + 1 :], z[m:-1], ehat[:-1]
    return (lambda p: float(np.sum((y - p[0] * z_lag - p[1] * e_lag) ** 2))), y


@pytest.mark.parametrize("kind", _KINDS)
def test_css_refinement_agrees_with_nelder_mead(kind):
    for seed in range(12):
        x = _stress_series(kind, seed)
        fit = fit_arma11(x)
        css, y = _second_stage_css(x)
        oracle = minimize(
            css, np.zeros(2), method="Nelder-Mead", options={"maxiter": 600, "xatol": 1e-9, "fatol": 1e-12}
        )
        case = f"{kind} seed {seed}"
        assert oracle.success, case
        # the collapse is the LR of the minimum against zero coefficients
        collapsed = y.size * np.log(float(y @ y) / oracle.fun) < 9.21
        assert fit.warnings == ((_COLLAPSED,) if collapsed else ()), case
        got = (fit.phi[0, 0], fit.theta[0, 0])
        if collapsed:
            assert got == (0.0, 0.0), case
        else:
            assert css(got) <= oracle.fun * (1 + 1e-9), case
            np.testing.assert_allclose(got, oracle.x, atol=1e-6, err_msg=case)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_css_refinement_on_the_stationarity_bound(seed):
    # a trending walk: the second-stage CSS minimum lies past phi = 1, so phi
    # is shrunk to the bound and theta keeps its least-squares value
    x = np.cumsum(1.0 + np.random.default_rng([7, seed]).normal(size=1461))
    fit = fit_arma11(x)
    assert fit.phi[0, 0] == _LIMIT
    assert fit.warnings == ("stationarity enforced by shrinking phi's spectral radius",)
    css, _ = _second_stage_css(x)
    oracle = minimize(
        css, np.zeros(2), method="Nelder-Mead", options={"maxiter": 600, "xatol": 1e-12, "fatol": 1e-14}
    )
    assert oracle.x[0] >= 1.0
    assert fit.theta[0, 0] == pytest.approx(oracle.x[1], abs=1e-7)


# ---------------------------------------------------------------- garbage


def test_fits_and_forecasts_leave_no_reference_cycles():
    rng = np.random.default_rng(37)
    panel = rng.standard_normal((300, 3)).cumsum(axis=0) * 0.1 + rng.standard_normal((300, 3))
    x = panel[:, 0]
    model = fit_arma11(x)
    e = residuals(model, x)
    assert_no_reference_cycles([
        lambda: fit_arma11(x),
        lambda: fit_varma11(panel),
        lambda: residuals(model, x),
        lambda: forecast(model, x[-1], e[-1], 30),
    ])
