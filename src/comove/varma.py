"""First-order (V)ARMA estimation, forecasting, and comparison.

Every model is one record, :class:`VarmaModel`; a univariate ARMA(1,1) is its
p = 1 case, with 1 x 1 coefficient matrices.

Both families are fitted by one estimator, the two-stage Hannan-Rissanen
procedure: a long autoregression supplies residual proxies, then the (1,1)
coefficients come from least squares of the demeaned data on its own lag and
the lagged proxy residuals. The long AR's order is round(10 * log10(n)),
capped at (n - 2) // (2p + 1), so that its n - m rows are more than twice its
m p regressors, and never below 1. If that
regression is not significantly better than zero coefficients (a
likelihood-ratio statistic under the chi-square(2 p^2) 99% point), the model
collapses to white noise, since on the Phi = -Theta ridge a (1,1) model is
unidentified and the raw estimates are pure noise. Otherwise a coefficient
matrix whose spectral radius reaches 1 is shrunk inside the unit circle.

Forecasts iterate the difference equation from the last observation and last
residual; forecast-error covariances accumulate psi-weight outer products,
and 95% bands use the plain Gaussian 1.96 multiplier. Every first-order
recursion (residuals, simulated paths, forecast points and psi weights) runs
as one log-depth prefix scan: ceil(log2 n) batched products, no loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .packets import _count
from .timeseries import MAX_SERIES

_STATIONARITY_MARGIN = 1e-4
# 99% points of chi-square(2 p^2), p = 1..MAX_SERIES: the white-noise collapse's thresholds
_WHITE_NOISE_CHI2_99 = (9.21, 20.09, 34.81, 53.49, 76.15, 102.82, 133.48, 168.13)
MIN_OBS = 50  # fewest observations either fit takes
_COLLINEARITY_LIMIT = 1e12
_COLLINEAR = "regressors are numerically collinear (duplicated or linearly dependent series)"
_TRI_BLOCK = 32  # _lower_inverse inverts blocks this small directly
# refinement steps of the long AR: one where the Gram's condition bound is at
# most _ONE_STEP_COND, else the cap _REFINE_STEPS (on a sine + 1e-6 noise
# column 0 steps miss lstsq by up to 5.3, 2 by 3e-5)
_REFINE_STEPS = 2
_ONE_STEP_COND = np.finfo(float).eps ** -0.5
_SHRINK_NOTES = (
    "stationarity enforced by shrinking phi's spectral radius",
    "invertibility enforced by shrinking theta's spectral radius",
)
_BAND_MULTIPLIER = 1.96
_TIE_RTOL = 1e-12  # MSEs this close, relative to the larger, rank as a tie
_BURN_IN = 500  # samples simulate_varma draws and discards before its path
# sigma's symmetry and semidefiniteness are judged to this multiple of eps p
# max|sigma_ii|: eigvalsh's error and the rounding of a covariance product
# are small multiples of eps ||sigma||_2 <= eps tr(sigma) <= eps p max sigma_ii
_SIGMA_RTOL = 64 * np.finfo(float).eps
# a stack's ||A||_inf below this settles rho(A) < 1 without eigvals: rho(A) <=
# ||A||_inf (Gersgorin), and eigvals returns the exact eigenvalues of some
# A + E with ||E|| a small multiple of p eps ||A||, far inside the slack
_INSIDE = 1.0 - 1e-12


@dataclass(frozen=True)
class VarmaModel:
    """Vector ARMA(1,1): x_t - mu = Phi (x_{t-1} - mu) + e_t + Theta e_{t-1}.

    A univariate ARMA(1,1) is the p = 1 case. Every entry must be finite,
    Phi stationary and Theta invertible (spectral radius below 1), and sigma
    symmetric and positive semidefinite to within rounding at its own scale
    (_SIGMA_RTOL p max|sigma_ii|) and with a positive diagonal: every series
    has innovations.
    """

    mu: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    sigma: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        p = mu.size
        phi = np.asarray(self.phi, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        fields = (("mu", mu), ("phi", phi), ("theta", theta), ("sigma", sigma))
        for name, m in fields[1:]:
            if m.shape != (p, p):
                raise ValueError(f"{name} must be ({p}, {p}), got {m.shape}")
        if not np.isfinite(np.concatenate([m.ravel() for _, m in fields])).all():
            name = next(name for name, m in fields if not np.isfinite(m).all())
            raise ValueError(f"{name} contains non-finite values")
        for name, rho in zip(("phi", "theta"), _radii(np.array([phi, theta]))):
            if rho >= 1.0:
                raise ValueError(f"{name} has an eigenvalue on or outside the unit circle")
        diagonal = np.diagonal(sigma)
        tol = _SIGMA_RTOL * p * np.abs(diagonal).max()
        if np.abs(sigma - sigma.T).max() > tol:
            raise ValueError("sigma must be symmetric")
        sym = (sigma + sigma.T) / 2
        # a diagonally dominant sym is semidefinite (Gersgorin): no eigvalsh needed
        dominant = (2.0 * diagonal >= np.abs(sym).sum(axis=1)).all()  # sym_ii = sigma_ii
        if not dominant and np.linalg.eigvalsh(sym)[0] < -tol:
            raise ValueError("sigma must be positive semidefinite")
        if not (diagonal > 0.0).all():
            raise ValueError("sigma's diagonal must be positive")
        for name, m in fields:
            arr = m.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return int(self.mu.size)


def _radii(stack: np.ndarray) -> np.ndarray:
    """The spectral radius of each (p, p) matrix of ``stack``, or, when
    ||A||_inf (the largest absolute row sum) keeps every one inside the unit
    circle, those bounds: ``eigvals`` runs only when a bound leaves it open."""
    radii = np.abs(stack).sum(axis=2).max(axis=1)
    if radii.max() >= _INSIDE:
        radii = np.abs(np.linalg.eigvals(stack)).max(axis=1)
    return radii


def _long_ar_order(n: int, p: int) -> int:
    m = int(round(10.0 * np.log10(n)))
    cap = (n - 2) // (2 * p + 1)
    return max(1, min(m, cap))


def _lagged_design(z: np.ndarray, m: int) -> np.ndarray:
    """Lags 0..m of rows m..n-1 of ``z``, lag-major: [y | D] of the long autoregression.

    Lag 0 is its regressand y = z[m:], lags 1..m its regressors D. Row t is a run of the
    flattened, time-reversed z, so the design is one C-ordered copy of a strided view
    whose rows step back p entries.
    """
    flat = z[::-1].reshape(-1)  # z[n - 1], z[n - 2], ...: row t starts at (n - 1 - t) p
    p, step = flat.size // len(z), flat.strides[0]
    rows = (len(z) - m, (m + 1) * p)
    return np.lib.stride_tricks.as_strided(flat[(len(z) - 1 - m) * p :], rows, (-p * step, step)).copy()


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2 x 2 block recursion.

    inv([[L11, 0], [L21, L22]]) = [[X11, 0], [-X22 L21 X11, X22]] with
    Xii = inv(Lii) (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, chapter 8). Blocks of _TRI_BLOCK rows or fewer go to
    ``np.linalg.inv``, whose LU is cheap at that size; at 256 x 256 the
    recursion takes about a fifth of the time of one LU inverse of the whole.
    """
    n = len(low)
    if n <= _TRI_BLOCK:
        return np.linalg.inv(low)
    k = n // 2
    top, bottom = _lower_inverse(low[:k, :k]), _lower_inverse(low[k:, k:])
    inv = np.zeros_like(low)
    inv[:k, :k] = top
    inv[k:, k:] = bottom
    inv[k:, :k] = -(bottom @ low[k:, :k]) @ top
    return inv


def _lag_gram(lagged: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """D'D and D'y of the lag-0..m design ``lagged`` = [y | D] of p series.

    Both come from lag covariances. With the lag blocks Gamma(i, j) = sum_t z_{t-i} z_{t-j}' over rows
    t = m..n-1, D'D holds Gamma(i, j) for i, j = 1..m and D'y Gamma(i, 0).
    One product y'[y | D] gives the first block row Gamma(0, 0..m); every
    other block follows from the block above-left by a rank-2 end correction,
    Gamma(i+1, j+1) = Gamma(i, j) + z_{m-1-i} z_{m-1-j}' - z_{n-1-i} z_{n-1-j}',
    whose vectors are the design's first row (lags 1..m) and last row (lags
    0..m-1). The corrections are summed down the block diagonals one block
    row at a time (the covariance method's displacement structure; Morf,
    Dickinson, Kailath and Vieira, IEEE Trans. ASSP, 1977).
    At the joint fit's 1429 x 256 design (p = 8) that replaces 94 M
    multiply-adds of D'D by about 3 M.
    """
    m = lagged.shape[1] // p - 1
    first = lagged[:, :p].T @ lagged  # Gamma(0, 0..m), p x (m + 1) p
    ends = np.array([lagged[0, p:], lagged[-1, :-p]])
    gram = (ends.T * [1.0, -1.0]) @ ends  # block (i, j): the correction to Gamma(i+1, j+1)
    rows = gram.reshape(m, p, m * p)
    rows[0] += first[:, :-p]
    rows[1:, :, :p] += first[:, p:-p].reshape(p, m - 1, p).transpose(1, 2, 0)
    for above, row in zip(rows[:, :, :-p], rows[1:, :, p:]):  # views, so each sum carries on
        row += above
    return gram, first[:, p:].T


def _long_ar_residuals(z: np.ndarray, m: int) -> np.ndarray:
    """Residuals of the order-m least-squares autoregression of the (n, p) block ``z``.

    Rows m..n-1 of z are regressed on their lags 1..m (:func:`_lagged_design`)
    by refined normal equations, with D'D and D'y built from lag covariances
    (:func:`_lag_gram`). The Gram matrix G = D'D = L L' is factored once by
    Cholesky. The squared ratio of L's largest to smallest diagonal entry is
    the ratio of G's largest to smallest pivot, a lower bound on cond(G); a
    failed factorization or a ratio above _COLLINEARITY_LIMIT raises the
    collinearity ValueError. Otherwise L is inverted once
    (:func:`_lower_inverse`) and G b = D'e is solved as
    inv(L)' (inv(L) D'e), once on e = y and then once or twice more on the
    current residuals e = y - D b against the explicit design, adding each
    correction to b (fixed-precision iterative refinement; Bjorck, Numerical
    Methods for Least Squares Problems, 1996, section 2.9; Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, chapter 12). Each step
    shrinks the error by about cond(G) times the machine epsilon, so one step
    reaches rounding when cond(G) <= eps^(-1/2). The bound
    ||G||_F ||inv(L)||_F^2 >= ||G||_2 ||inv(G)||_2 = cond(G) is read off the
    two arrays at hand: at most _ONE_STEP_COND (eps^(-1/2), about 6.7e7) takes
    one step, above it the cap of _REFINE_STEPS = 2.

    Both fits solve their long autoregression here. At n = 1461 on one CPU
    this is about 5.4 to 6 times faster than ``lstsq`` on the joint fit's
    1429 x 256 design (p = 8) and 4.8 to 5.2 times on the univariate fit's
    1429 x 32 one, building the design included, with residuals equal to
    rounding. A deterministic series (a sine, a trend, a sawtooth) makes the
    design exactly rank-deficient, and both fits let the error through.
    """
    p = z.shape[1]
    lagged = _lagged_design(z, m)
    y, design = lagged[:, :p], lagged[:, p:]
    gram, cross = _lag_gram(lagged, p)
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError(_COLLINEAR) from None
    pivots = np.diagonal(low)
    if not (pivots.max() / pivots.min()) ** 2 <= _COLLINEARITY_LIMIT:
        raise ValueError(_COLLINEAR)
    inv = _lower_inverse(low)
    bound = np.sqrt(np.vdot(gram, gram)) * np.vdot(inv, inv)  # ||G||_F ||inv(L)||_F^2
    steps = 1 if bound <= _ONE_STEP_COND else _REFINE_STEPS
    beta = inv.T @ (inv @ cross)
    for _ in range(steps):
        beta = beta + inv.T @ (inv @ (design.T @ (y - design @ beta)))
    return y - design @ beta


def fit_arma11(x: np.ndarray) -> VarmaModel:
    """Fit a univariate ARMA(1,1) by the two-stage Hannan-Rissanen procedure.

    The p = 1 case of the joint fit of :func:`fit_varma11`: one estimator
    serves both model families, so the comparison measures the joint model,
    not a difference between fitting rules. A deterministic series (a sine, a trend, a
    sawtooth) makes the long autoregression exactly collinear and is
    refused, not fitted.

    Parameters
    ----------
    x : ndarray, shape (n,)
        At least 50 finite observations with positive variance.

    Returns
    -------
    VarmaModel
        With p = 1: 1 x 1 phi and theta strictly inside the unit interval
        and sigma the innovation variance. When the fit is
        indistinguishable from white noise at the 1% level it collapses to
        phi = theta = 0 (warning recorded).

    Raises
    ------
    ValueError
        Too few observations, non-finite values, a constant series, an
        innovation variance outside float64's range, or a numerically
        collinear regression (a series its own lags predict exactly).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    return _fit_two_stage(x[:, None])


def fit_varma11(data: np.ndarray) -> VarmaModel:
    """Fit a vector ARMA(1,1) by the two-stage Hannan-Rissanen procedure.

    Parameters
    ----------
    data : ndarray, shape (n, p)
        Columns are series; 2 <= p <= ``MAX_SERIES``, n >= 50, finite, and
        no constant column.

    Returns
    -------
    VarmaModel
        Phi shrunk to stationarity and Theta to invertibility where the
        estimates reach the unit circle, and sigma the residual covariance.
        When the fit is indistinguishable from white noise at the 1% level
        it collapses to Phi = Theta = 0 (warning recorded).

    Raises
    ------
    ValueError
        Shape problems, non-finite values, a constant column or one whose
        innovation variance is outside float64's range (both named), or a
        numerically collinear regression (a duplicated, scaled or lagged
        copy of a series, a sum of series, or a column its own lags predict
        exactly, such as a trend or a short cycle).
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a (n, p) matrix")
    if not 2 <= x.shape[1] <= MAX_SERIES:
        raise ValueError(f"need between 2 and {MAX_SERIES} series, got {x.shape[1]}")
    return _fit_two_stage(x)


def _fit_two_stage(x: np.ndarray) -> VarmaModel:
    """The two-stage fit of an (n, p) block ``x``, 1 <= p <= ``MAX_SERIES``.

    Both fits check their input here: at least MIN_OBS rows, finite values
    and no constant column, judged on the raw values. They read one
    C-ordered copy of the block (none if it is C-ordered), so the digits do
    not depend on its memory layout.
    Residual proxies for z = x - mu come from the long autoregression
    (:func:`_long_ar_residuals`); Phi and Theta from least squares of z_t
    on z_{t-1} and the lagged proxies, with a cond(w'w) collinearity check
    read from the singular values of w that the least squares returns.
    The fit collapses to white noise when that regression's likelihood
    ratio against zero coefficients, LR = T (log det Y'Y - log det R'R) over
    its T rows, regressand Y and residuals R, falls below the 99% point of
    chi-square(2 p^2): on the Phi = -Theta ridge a (1,1) model is
    unidentified and the estimates are pure noise. Otherwise a coefficient
    matrix whose spectral radius reaches 1 is shrunk to 1 - 1e-4.

    Both stages run in power-of-two column units: column j of z is divided
    by 2**e_j, where max|z_j| = f 2**e_j with 1/2 <= f < 1 (``np.frexp``),
    which is exact. So the collinearity checks and the shrink decide the
    same on data in any units, and a column rescaled by a power of two gives
    the same fit, mapped back bit for bit as Phi = D Phi_u D^-1, Theta =
    D Theta_u D^-1 and Sigma = D Sigma_u D with D = diag(2**e_j). A column
    whose innovation variance would leave float64's normal range is refused
    by name.
    """
    x = np.ascontiguousarray(x)
    n, p = x.shape
    if n < MIN_OBS:
        raise ValueError(f"need at least {MIN_OBS} observations, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite values")
    # each column's range, as row reductions of the transpose (faster); a constant
    # is judged on it, since its demeaned copy can hold its mean's rounding
    xt = np.ascontiguousarray(x.T)
    top, bottom = xt.max(axis=1), xt.min(axis=1)
    constant = top == bottom
    if constant.any():
        where = "" if p == 1 else f"column {int(np.argmax(constant))}: "
        raise ValueError(f"{where}constant series has no ARMA structure to fit")
    mu = x.sum(axis=0) / n  # x.mean(axis=0), without its wrapper
    z = x - mu
    notes: list[str] = []
    m = _long_ar_order(n, p)
    # D = diag(2**e): max|z_j| = f 2**e_j, 1/2 <= f < 1; rounding is monotone,
    # so max|z_j| is top_j - mu_j or mu_j - bottom_j exactly
    e = np.frexp(np.maximum(top - mu, mu - bottom))[1]
    u = np.ldexp(z, -e)
    ehat = _long_ar_residuals(u, m)

    y = u[m + 1 :]
    w = np.concatenate([u[m:-1], ehat[:-1]], axis=1)
    coef, _, _, sv = np.linalg.lstsq(w, y, rcond=None)
    if not sv[0] ** 2 <= _COLLINEARITY_LIMIT * sv[-1] ** 2:  # cond(w'w) = (s_max / s_min)^2
        raise ValueError(_COLLINEAR)
    r = y - w @ coef
    logdets = np.linalg.slogdet(np.array([y.T @ y, r.T @ r]))[1]
    if len(y) * (logdets[0] - logdets[1]) < _WHITE_NOISE_CHI2_99[p - 1]:
        coef = np.zeros_like(coef)
        notes.append("no ARMA structure significant at the 1% level; collapsed to white noise")
    phi = coef[:p].T.copy()
    theta = coef[p:].T.copy()

    shrink = 1.0 - _STATIONARITY_MARGIN
    for a, rho, note in zip((phi, theta), _radii(np.array([phi, theta])), _SHRINK_NOTES):
        if rho >= 1.0:
            a *= shrink / rho
            notes.append(note)

    resid = _varma_residuals(u, phi, theta)
    sigma = resid[1:].T @ resid[1:] / (n - 1)
    sigma = (sigma + sigma.T) / 2.0
    # D Sigma D is exact while each variance stays a normal float64: check its exponent first
    exponent, info = np.frexp(np.diagonal(sigma))[1] + 2 * e, np.finfo(float)
    outside = (exponent <= info.minexp) | (exponent > info.maxexp)
    if outside.any():
        where = "" if p == 1 else f"column {int(np.argmax(outside))}: "
        raise ValueError(f"{where}innovation variance is outside float64's range; rescale the series")
    phi, theta = (np.ldexp(a, e[:, None] - e) for a in (phi, theta))  # D A D^-1, exactly
    sigma = np.ldexp(sigma, e[:, None] + e)
    return VarmaModel(mu=mu, phi=phi, theta=theta, sigma=sigma, warnings=tuple(notes))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, elementwise where the summed axis has length 1, as in every
    product of a p = 1 model: the same single products without matmul's
    dispatch, about 2.5 times faster on an (n, 1) @ (1, 1) product of 1461 rows."""
    return a * b if a.shape[-1] == 1 else a @ b


def _linear_recursion(u: np.ndarray, a: np.ndarray | float) -> np.ndarray:
    """x_0 = u_0, x_t = u_t + a x_{t-1} along axis 0, as a doubling scan.

    ``a`` is a (p, p) matrix or a scalar. A scalar or 1 x 1 ``a`` multiplies
    elementwise, as a float (:func:`_matmul`'s rule).
    """
    scalar = np.size(a) == 1
    if scalar:
        a = float(np.reshape(a, ()))
    x, k = u.copy(), 1
    while k < len(x):
        # row t now sums a^j u_{t-j} over j < 2k
        if scalar:
            x[k:] += a * x[:-k]
            a = a * a
        else:
            x[k:] += x[:-k] @ a.T
            a = a @ a
        k *= 2
    return x


def _varma_residuals(z: np.ndarray, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Residual recursion e_t = z_t - Phi z_{t-1} - Theta e_{t-1}, e_0 = 0."""
    u = np.empty_like(z)
    u[0] = 0.0
    np.subtract(z[1:], _matmul(z[:-1], phi.T), out=u[1:])
    return _linear_recursion(u, -theta)


def residuals(model: VarmaModel, data: np.ndarray) -> np.ndarray:
    """Innovation estimates for a fitted model on (typically its own) data.

    ``data`` is (n, p), or (n,) when p = 1. Returns an array of the same
    shape: row/element t is the residual at time t, with e_0 = 0 by
    convention. Non-finite data is refused.
    """
    x = np.asarray(data, dtype=float)
    z = x[:, None] if x.ndim == 1 else x
    if z.ndim != 2 or z.shape[1] != model.p:
        raise ValueError(f"data must be (n, {model.p})")
    if not np.isfinite(z).all():
        raise ValueError("data contains non-finite values")
    return _varma_residuals(z - model.mu, model.phi, model.theta).reshape(x.shape)


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts with their 95% Gaussian bands, horizons 1..H; each
    array is (H, p)."""

    points: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def forecast(
    model: VarmaModel,
    y_last: float | np.ndarray,
    e_last: float | np.ndarray,
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
    model : VarmaModel
    y_last : scalar or (p,) array
        Last observed value(s).
    e_last : scalar or (p,) array
        Last residual(s), as :func:`residuals` gives them.
    horizon : int, at least 1.

    Raises
    ------
    ValueError
        A horizon that is not a positive integer, shape mismatches, or a
        non-finite y_last or e_last.
    """
    _count("horizon", horizon)
    mu, phi, theta, p = model.mu, model.phi, model.theta, model.p
    y = np.atleast_1d(np.asarray(y_last, dtype=float))
    if y.shape != (p,):
        raise ValueError(f"y_last must have shape ({p},), got {y.shape}")
    e = np.atleast_1d(np.asarray(e_last, dtype=float))
    if e.shape != (p,):
        raise ValueError(f"e_last must have shape ({p},), got {e.shape}")
    for name, v in (("y_last", y), ("e_last", e)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} contains non-finite values")

    dev = np.zeros((horizon, p))
    dev[0] = phi @ (y - mu) + theta @ e
    points = mu + _linear_recursion(dev, phi)

    psi_t = np.zeros((horizon, p, p))  # drive I, Theta', 0, ...: row h becomes Psi_h'
    psi_t[0] = np.eye(p)
    psi_t[1:2] = theta.T
    psi_t = _linear_recursion(psi_t, phi)
    cov = np.cumsum(_matmul(_matmul(np.swapaxes(psi_t, 1, 2), model.sigma), psi_t), axis=0)
    band = _BAND_MULTIPLIER * np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    return ForecastResult(points=points, lower=points - band, upper=points + band)


@dataclass(frozen=True)
class MseEvaluation:
    """Forecast errors against realized values: cum_mse is each series' mean
    squared error over horizons 1..H."""

    cum_mse: np.ndarray


def evaluate_mse(result: ForecastResult, actual: np.ndarray) -> MseEvaluation:
    """Score a forecast against realized observations.

    ``actual`` must supply a row per forecast horizon (extra rows are
    ignored, and only the scored rows must be finite); a one-dimensional
    array is accepted for univariate forecasts.
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
    if not np.isfinite(a[:h]).all():
        raise ValueError(f"actual contains non-finite values in its first {h} rows")
    return MseEvaluation(cum_mse=((a[:h] - result.points) ** 2).mean(axis=0))


def mse_comparison(
    names: tuple[str, ...],
    arma_mse: np.ndarray,
    varma_mse: np.ndarray,
) -> tuple[str, ...]:
    """Rank per-series ARMA and VARMA cumulative MSEs: one verdict per series,
    in order, ``"ARMA"``, ``"VARMA"`` or ``"tie"``.

    A difference of at most 1e-12 of the larger MSE counts as a tie, so a
    change of units, which scales both alike, moves no verdict. A non-finite
    MSE, which that rule cannot rank, is refused, naming its series.
    """
    arma_mse = np.atleast_1d(np.asarray(arma_mse, dtype=float))
    varma_mse = np.atleast_1d(np.asarray(varma_mse, dtype=float))
    if not len(names) == arma_mse.size == varma_mse.size:
        raise ValueError("names and MSE vectors must have matching lengths")
    bad = ~(np.isfinite(arma_mse) & np.isfinite(varma_mse))
    if bad.any():
        raise ValueError(f"series {names[int(np.argmax(bad))]!r} has a non-finite MSE")
    return tuple("tie" if abs(am - vm) <= _TIE_RTOL * max(am, vm) else "VARMA" if vm < am else "ARMA"
                 for am, vm in zip(arma_mse.tolist(), varma_mse.tolist()))


def simulate_varma(model: VarmaModel, n: int, seed: int) -> np.ndarray:
    """Draw a Gaussian sample path from a (vector) ARMA(1,1) model.

    The recursion starts from a zero state and discards its first 500
    samples, so the returned path is effectively stationary. Deterministic
    for a given seed.

    Returns
    -------
    ndarray, shape (n, p)
        One column per series.
    """
    _count("n", n)
    _count("seed", seed, least=0)
    p = model.p
    rng = np.random.default_rng(seed)
    try:
        # a jitter on sigma's scale, so a model rescaled by c draws c times the path
        chol = np.linalg.cholesky(model.sigma + (1e-12 * np.trace(model.sigma) / p) * np.eye(p))
    except np.linalg.LinAlgError as exc:
        raise ValueError("innovation covariance is not positive definite") from exc
    u = rng.standard_normal((n + _BURN_IN, p)) @ chol.T
    u[1:] += u[:-1] @ model.theta.T  # drive eps_t + Theta eps_{t-1}, eps_{-1} = 0
    return _linear_recursion(u, model.phi)[_BURN_IN:] + model.mu
