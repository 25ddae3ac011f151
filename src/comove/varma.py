"""First-order (V)ARMA estimation, forecasting, and comparison.

Estimation is the two-stage Hannan-Rissanen procedure: a long autoregression
of order round(10 * log10(n)) supplies residual proxies, then the (1,1)
coefficients come from least squares of the demeaned data on its own lag and
the lagged proxy residuals. The univariate path refines the two-stage
estimate by minimizing the conditional sum of squares; if the refined fit is
not significantly better than white noise (an LR-style statistic under the
chi-square(2) 99% point), the model collapses to white noise, since on the
phi = -theta ridge a (1,1) model is unidentified and the raw estimates are
pure noise.

Forecasts iterate the difference equation from the last observation and last
residual; forecast-error covariances accumulate psi-weight outer products,
and 95% bands use the plain Gaussian 1.96 multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

_STATIONARITY_MARGIN = 1e-4
_REDUNDANCY_CHI2_99 = 9.21
_MIN_OBS = 50
_COLLINEARITY_LIMIT = 1e12
_BAND_MULTIPLIER = 1.96


@dataclass(frozen=True)
class ArmaModel:
    """Univariate ARMA(1,1): x_t - mu = phi (x_{t-1} - mu) + e_t + theta e_{t-1}."""

    mu: float
    phi: float
    theta: float
    sigma2: float
    n_obs: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if abs(self.phi) >= 1.0:
            raise ValueError(f"phi = {self.phi} is not stationary")
        if abs(self.theta) >= 1.0:
            raise ValueError(f"theta = {self.theta} is not invertible")
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class VarmaModel:
    """Vector ARMA(1,1): x_t - mu = Phi (x_{t-1} - mu) + e_t + Theta e_{t-1}."""

    mu: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    sigma: np.ndarray
    n_obs: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        p = mu.size
        phi = np.asarray(self.phi, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        for name, m in (("phi", phi), ("theta", theta), ("sigma", sigma)):
            if m.shape != (p, p):
                raise ValueError(f"{name} must be ({p}, {p}), got {m.shape}")
        if np.max(np.abs(np.linalg.eigvals(phi))) >= 1.0:
            raise ValueError("phi has an eigenvalue on or outside the unit circle")
        if np.max(np.abs(np.linalg.eigvals(theta))) >= 1.0:
            raise ValueError("theta has an eigenvalue on or outside the unit circle")
        if np.abs(sigma - sigma.T).max() > 1e-10:
            raise ValueError("sigma must be symmetric")
        if np.min(np.linalg.eigvalsh((sigma + sigma.T) / 2)) < -1e-10:
            raise ValueError("sigma must be positive semidefinite")
        for name, m in (("mu", mu), ("phi", phi), ("theta", theta), ("sigma", sigma)):
            arr = m.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return int(self.mu.size)


def _as_matrices(model: ArmaModel | VarmaModel) -> tuple[np.ndarray, ...]:
    if isinstance(model, ArmaModel):
        return (
            np.array([model.mu]),
            np.array([[model.phi]]),
            np.array([[model.theta]]),
            np.array([[model.sigma2]]),
        )
    return (
        np.asarray(model.mu),
        np.asarray(model.phi),
        np.asarray(model.theta),
        np.asarray(model.sigma),
    )


def _long_ar_order(n: int, p: int) -> int:
    m = int(round(10.0 * np.log10(n)))
    cap = (n - 2) // (2 * p + 1)
    return max(1, min(m, cap))


def _css_arma(params: np.ndarray, z: np.ndarray) -> float:
    phi, theta = params
    if abs(phi) >= 1.0 or abs(theta) >= 1.0:
        return np.inf
    u = z[1:] - phi * z[:-1]
    e = lfilter([1.0], [1.0, theta], u)
    return float(e @ e)


def fit_arma11(x: np.ndarray, css: bool = True) -> ArmaModel:
    """Fit a univariate ARMA(1,1) by Hannan-Rissanen plus CSS refinement.

    Parameters
    ----------
    x : ndarray, shape (n,)
        At least 50 finite observations with positive variance.
    css : bool
        Refine the two-stage estimate by conditional-sum-of-squares
        minimization (Nelder-Mead). If the optimizer fails to converge the
        two-stage estimates are returned with a warning recorded on the
        model.

    Returns
    -------
    ArmaModel
        With coefficients strictly inside the unit interval and, when the
        fit is indistinguishable from white noise at the 1% level, collapsed
        to phi = theta = 0 (warning recorded).

    Raises
    ------
    ValueError
        Too few observations, non-finite values, or a constant series.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    if n < _MIN_OBS:
        raise ValueError(f"need at least {_MIN_OBS} observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    mu = float(x.mean())
    z = x - mu
    if float(z @ z) == 0.0:
        raise ValueError("constant series has no ARMA structure to fit")

    notes: list[str] = []
    m = _long_ar_order(n, 1)
    design = np.column_stack([z[m - k - 1 : n - k - 1] for k in range(m)])
    beta, *_ = np.linalg.lstsq(design, z[m:], rcond=None)
    ehat = z[m:] - design @ beta

    y2 = z[m + 1 :]
    x2 = np.column_stack([z[m:-1], ehat[:-1]])
    coef, *_ = np.linalg.lstsq(x2, y2, rcond=None)
    limit = 1.0 - _STATIONARITY_MARGIN
    phi0 = float(np.clip(coef[0], -limit, limit))
    theta0 = float(np.clip(coef[1], -limit, limit))
    if phi0 != coef[0]:
        notes.append("stationarity enforced on the two-stage phi estimate")
    if theta0 != coef[1]:
        notes.append("invertibility enforced on the two-stage theta estimate")

    phi, theta = phi0, theta0
    if css:
        res = minimize(
            _css_arma,
            np.array([phi0, theta0]),
            args=(z,),
            method="Nelder-Mead",
            options={"maxiter": 600, "xatol": 1e-9, "fatol": 1e-12},
        )
        if res.success:
            phi = float(np.clip(res.x[0], -limit, limit))
            theta = float(np.clip(res.x[1], -limit, limit))
        else:
            notes.append("CSS refinement did not converge; two-stage estimates kept")

    css_fit = _css_arma(np.array([phi, theta]), z)
    css_white = float(z[1:] @ z[1:])
    lr_stat = (n - 1) * np.log(max(css_white, 1e-300) / max(css_fit, 1e-300))
    if lr_stat < _REDUNDANCY_CHI2_99:
        phi, theta = 0.0, 0.0
        css_fit = css_white
        notes.append(
            "no ARMA structure significant at the 1% level; collapsed to white noise"
        )

    sigma2 = max(css_fit / (n - 1), np.finfo(float).tiny)
    return ArmaModel(
        mu=mu, phi=phi, theta=theta, sigma2=sigma2, n_obs=n, warnings=tuple(notes)
    )


def fit_varma11(data: np.ndarray) -> VarmaModel:
    """Fit a vector ARMA(1,1) by the two-stage Hannan-Rissanen procedure.

    Unlike :func:`fit_arma11` there is no CSS refinement: the univariate
    refinement does not generalize cheaply, and the two-stage fit is already
    consistent.

    Parameters
    ----------
    data : ndarray, shape (n, p)
        Columns are series; 2 <= p <= 8, n >= 50, finite, and no constant
        column. Objects with a ``values_matrix`` method (the package's
        MultiSeries) are accepted too.

    Raises
    ------
    ValueError
        Shape problems, non-finite values, a constant column, or a
        numerically collinear regression (duplicated series).
    """
    if hasattr(data, "values_matrix"):
        data = data.values_matrix()
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a (n, p) matrix")
    n, p = x.shape
    if not 2 <= p <= 8:
        raise ValueError(f"need between 2 and 8 series, got {p}")
    if n < _MIN_OBS:
        raise ValueError(f"need at least {_MIN_OBS} observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite values")
    mu = x.mean(axis=0)
    z = x - mu
    col_ss = np.einsum("ij,ij->j", z, z)
    if np.any(col_ss == 0.0):
        dead = int(np.argmin(col_ss))
        raise ValueError(f"column {dead} is constant; no structure to fit")

    notes: list[str] = []
    m = _long_ar_order(n, p)
    design = np.column_stack([z[m - k - 1 : n - k - 1] for k in range(m)])
    beta, *_ = np.linalg.lstsq(design, z[m:], rcond=None)
    ehat = z[m:] - design @ beta

    w = np.column_stack([z[m:-1], ehat[:-1]])
    gram = w.T @ w
    if np.linalg.cond(gram) > _COLLINEARITY_LIMIT:
        raise ValueError(
            "regressors are numerically collinear (duplicated or linearly "
            "dependent series)"
        )
    coef, *_ = np.linalg.lstsq(w, z[m + 1 :], rcond=None)
    phi = coef[:p].T.copy()
    theta = coef[p:].T.copy()

    shrink = 1.0 - _STATIONARITY_MARGIN
    rho_phi = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if rho_phi >= 1.0:
        phi *= shrink / rho_phi
        notes.append("stationarity enforced by shrinking phi's spectral radius")
    rho_theta = float(np.max(np.abs(np.linalg.eigvals(theta))))
    if rho_theta >= 1.0:
        theta *= shrink / rho_theta
        notes.append("invertibility enforced by shrinking theta's spectral radius")

    resid = _varma_residuals(z, phi, theta)
    sigma = resid[1:].T @ resid[1:] / (n - 1)
    sigma = (sigma + sigma.T) / 2.0
    return VarmaModel(
        mu=mu, phi=phi, theta=theta, sigma=sigma, n_obs=n, warnings=tuple(notes)
    )


def _varma_residuals(z: np.ndarray, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Residual recursion e_t = z_t - Phi z_{t-1} - Theta e_{t-1}, e_0 = 0."""
    n, p = z.shape
    e = np.zeros((n, p))
    for t in range(1, n):
        e[t] = z[t] - phi @ z[t - 1] - theta @ e[t - 1]
    return e


def residuals(model: ArmaModel | VarmaModel, data: np.ndarray) -> np.ndarray:
    """Innovation estimates for a fitted model on (typically its own) data.

    Returns an array aligned with the input: row/element t is the residual at
    time t, with e_0 = 0 by convention. Univariate input gives shape (n,),
    multivariate (n, p).
    """
    mu, phi, theta, _ = _as_matrices(model)
    if hasattr(data, "values_matrix"):
        data = data.values_matrix()
    x = np.asarray(data, dtype=float)
    if isinstance(model, ArmaModel):
        if x.ndim != 1:
            raise ValueError("univariate model needs a one-dimensional series")
        z = (x - mu[0])[:, None]
    else:
        if x.ndim != 2 or x.shape[1] != model.p:
            raise ValueError(f"data must be (n, {model.p})")
        z = x - mu
    e = _varma_residuals(z, phi, theta)
    return e[:, 0] if isinstance(model, ArmaModel) else e


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts with Gaussian uncertainty, horizons 1..H.

    Arrays are (H, p) (p = 1 for univariate models); cov is (H, p, p), the
    accumulated psi-weight covariance of the h-step forecast error.
    """

    horizon: int
    points: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def forecast(
    model: ArmaModel | VarmaModel,
    y_last: float | np.ndarray,
    e_last: float | np.ndarray | None,
    horizon: int,
) -> ForecastResult:
    """Iterated forecasts from the last observation and last residual.

    The one-step forecast is ``mu + Phi (y_T - mu) + Theta e_T``; beyond one
    step the moving-average part has zero expectation and the recursion is
    purely autoregressive. Error covariance at horizon h is
    ``sum_{k<h} Psi_k Sigma Psi_k'`` with Psi_0 = I, Psi_1 = Phi + Theta,
    Psi_k = Phi Psi_{k-1}; bands are the point plus/minus 1.96 standard
    deviations.

    Parameters
    ----------
    model : ArmaModel or VarmaModel
    y_last : scalar or (p,) array
        Last observed value(s).
    e_last : scalar, (p,) array, or None
        Last residual(s); None is only allowed when the model has no
        moving-average part.
    horizon : int, at least 1.

    Raises
    ------
    ValueError
        Nonpositive horizon, shape mismatches, or a missing e_last for a
        model with a moving-average part.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    mu, phi, theta, sigma = _as_matrices(model)
    p = mu.size
    y = np.atleast_1d(np.asarray(y_last, dtype=float))
    if y.shape != (p,):
        raise ValueError(f"y_last must have shape ({p},), got {y.shape}")
    if e_last is None:
        if np.any(theta != 0.0):
            raise ValueError(
                "model has a moving-average part; supply e_last (see residuals())"
            )
        e = np.zeros(p)
    else:
        e = np.atleast_1d(np.asarray(e_last, dtype=float))
        if e.shape != (p,):
            raise ValueError(f"e_last must have shape ({p},), got {e.shape}")

    points = np.empty((horizon, p))
    dev = phi @ (y - mu) + theta @ e
    points[0] = mu + dev
    for h in range(1, horizon):
        dev = phi @ dev
        points[h] = mu + dev

    cov = np.empty((horizon, p, p))
    psi = np.eye(p)
    acc = psi @ sigma @ psi.T
    cov[0] = acc
    for h in range(1, horizon):
        psi = (phi + theta) if h == 1 else phi @ psi
        acc = acc + psi @ sigma @ psi.T
        cov[h] = acc
    sd = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    return ForecastResult(
        horizon=horizon,
        points=points,
        cov=cov,
        lower=points - _BAND_MULTIPLIER * sd,
        upper=points + _BAND_MULTIPLIER * sd,
    )


@dataclass(frozen=True)
class MseEvaluation:
    """Squared forecast errors against realized values.

    squared_errors is (H, p); cum_mse averages over horizons per series;
    lower/upper are carried over from the forecast for reporting.
    """

    squared_errors: np.ndarray
    cum_mse: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def evaluate_mse(result: ForecastResult, actual: np.ndarray) -> MseEvaluation:
    """Score a forecast against realized observations.

    ``actual`` must supply at least ``result.horizon`` rows (extra rows are
    ignored); a one-dimensional array is accepted for univariate forecasts.
    The cumulative MSE is the mean squared error over horizons 1..H, the
    quantity the model comparison ranks.
    """
    a = np.asarray(actual, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    h, p = result.points.shape
    if a.shape[0] < h:
        raise ValueError(f"need {h} realized rows, got {a.shape[0]}")
    if a.shape[1] != p:
        raise ValueError(f"actual has {a.shape[1]} series, forecast has {p}")
    sq = (a[:h] - result.points) ** 2
    return MseEvaluation(
        squared_errors=sq,
        cum_mse=sq.mean(axis=0),
        lower=result.lower,
        upper=result.upper,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """Per-series cumulative MSE of the two model families and the winner."""

    name: str
    arma_mse: float
    varma_mse: float
    winner: str


def mse_comparison(
    names: tuple[str, ...],
    arma_mse: np.ndarray,
    varma_mse: np.ndarray,
    tie_tol: float = 1e-12,
) -> list[ComparisonRow]:
    """Rank per-series ARMA and VARMA cumulative MSEs.

    A difference within ``tie_tol`` counts as no winner.
    """
    arma_mse = np.atleast_1d(np.asarray(arma_mse, dtype=float))
    varma_mse = np.atleast_1d(np.asarray(varma_mse, dtype=float))
    if not len(names) == arma_mse.size == varma_mse.size:
        raise ValueError("names and MSE vectors must have matching lengths")
    rows = []
    for name, am, vm in zip(names, arma_mse, varma_mse):
        if abs(am - vm) <= tie_tol:
            winner = "tie"
        else:
            winner = "VARMA" if vm < am else "ARMA"
        rows.append(ComparisonRow(name=name, arma_mse=float(am), varma_mse=float(vm), winner=winner))
    return rows


def simulate_varma(
    model: ArmaModel | VarmaModel,
    n: int,
    seed: int,
    burn_in: int = 500,
) -> np.ndarray:
    """Draw a Gaussian sample path from a (vector) ARMA(1,1) model.

    The recursion starts from a zero state and discards ``burn_in`` samples,
    so the returned path is effectively stationary. Deterministic for a
    given seed.

    Returns
    -------
    ndarray, shape (n, p)
        One column per series (p = 1 for a univariate model).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    mu, phi, theta, sigma = _as_matrices(model)
    p = mu.size
    rng = np.random.default_rng(seed)
    try:
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(p))
    except np.linalg.LinAlgError as exc:
        raise ValueError("innovation covariance is not positive definite") from exc
    eps = rng.standard_normal((n + burn_in, p)) @ chol.T
    z = np.zeros((n + burn_in, p))
    z[0] = eps[0]
    for t in range(1, n + burn_in):
        z[t] = phi @ z[t - 1] + eps[t] + theta @ eps[t - 1]
    return z[burn_in:] + mu
