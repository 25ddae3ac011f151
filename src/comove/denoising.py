"""Wavelet shrinkage de-noising with data-driven threshold selection.

Nine selectors, four threshold rules (universal, SURE, their SUREShrink
hybrid, GCV) each over the pooled detail levels or per level as ``SELECTORS``
says, combined with three shrinkage rules (hard, soft, garrote). Noise level
is estimated from the finest detail level by the median absolute deviation.
Approximation coefficients are never thresholded.

The method sweep reports SNR/PSNR of each method's reconstruction against the
supplied reference (by default the input itself, so larger means gentler);
the convention string travels inside the report.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .packets import DwtCoeffs, dwt_forward, dwt_inverse

MAD_SCALE = 0.6745
MIN_MAD_COEFFS = 8  # fewest detail coefficients a MAD noise estimate is taken from
SHRINKAGE_RULES = ("hard", "soft", "garrote")
# the nine selectors, in sweep order: (threshold rule, taken per detail level
# rather than once over the pooled levels, conventional shrinkage rule)
SELECTORS = {
    "Universal": ("universal", False, "hard"),
    "UniversalLevel": ("universal", True, "hard"),
    "VisuShrink": ("universal", False, "soft"),
    "VisuShrinkLevel": ("universal", True, "soft"),
    "SURE": ("sure", False, "garrote"),
    "SURELevel": ("sure", True, "garrote"),
    "SUREShrink": ("sureshrink", True, "garrote"),
    "GCV": ("gcv", False, "garrote"),
    "GCVLevel": ("gcv", True, "garrote"),
}
METHODS = tuple(SELECTORS)
CONVENTIONAL_RULE = {name: shrinkage for name, (_, _, shrinkage) in SELECTORS.items()}
_SWEEP_CONVENTION = (
    "SNR/PSNR measured against the supplied reference (default: the original "
    "input), so larger means a gentler de-noising, not closer to the truth."
)


def canonical_method(method: str) -> str:
    """Map a case/punctuation-insensitive method name to its canonical form."""
    key = method.replace("_", "").replace("-", "").lower()
    for name in SELECTORS:
        if name.lower() == key:
            return name
    raise ValueError(f"unknown method {method!r}; have {METHODS}")


def estimate_noise_sigma(detail: np.ndarray) -> float:
    """MAD noise estimate ``median(|d|) / 0.6745`` from detail coefficients.

    Needs at least MIN_MAD_COEFFS (8) coefficients for the median to mean
    anything.
    """
    return _mad_sigma(np.sort(np.abs(np.asarray(detail, dtype=float))))


def _mad_sigma(magnitudes: np.ndarray) -> float:
    """:func:`estimate_noise_sigma` from the sorted ``|d|``: the median as
    ``np.median`` takes it, the middle value or the mean of the middle two."""
    n = magnitudes.size
    if n < MIN_MAD_COEFFS:
        raise ValueError(f"need at least {MIN_MAD_COEFFS} coefficients, got {n}")
    mid = magnitudes[n // 2] if n % 2 else (magnitudes[n // 2 - 1] + magnitudes[n // 2]) / 2.0
    return float(mid / MAD_SCALE)


def sweep_min_length(level: int) -> int:
    """Fewest samples :func:`method_sweep` takes at ``level``.

    The per-level selectors estimate the noise at every detail level, and
    the coarsest holds ceil(n / 2**level) coefficients, so n must exceed
    (MIN_MAD_COEFFS - 1) * 2**level.
    """
    return (MIN_MAD_COEFFS - 1) * 2**level + 1


def apply_shrinkage(
    w: np.ndarray | float, threshold: np.ndarray | float, rule: str = "soft"
) -> np.ndarray | float:
    """Apply a shrinkage rule elementwise.

    hard zeroes below the threshold and keeps the rest; soft also pulls
    survivors toward zero by the threshold; garrote shrinks survivors by
    ``t**2 / w``, so large coefficients are nearly untouched.

    ``threshold`` may be an array that broadcasts against ``w``: a column of
    k thresholds against a length-n ``w`` gives the (k, n) stack of the k
    scalar calls, element for element. A scalar ``w`` and scalar threshold
    give a float.

    Raises
    ------
    ValueError
        A negative or non-finite threshold entry, or an unknown rule.
    """
    t = np.asarray(threshold, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0))
    if bad.any():
        raise ValueError(f"threshold must be finite and nonnegative, got {t[bad].flat[0]}")
    if rule not in SHRINKAGE_RULES:
        raise ValueError(f"unknown rule {rule!r}; have {SHRINKAGE_RULES}")
    arr = np.asarray(w, dtype=float)
    keep = np.abs(arr) > t
    if rule == "hard":
        out = np.where(keep, arr, 0.0)
    elif rule == "soft":
        out = np.where(keep, np.sign(arr) * (np.abs(arr) - t), 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            shrunk = arr - t**2 / arr
        out = np.where(keep, shrunk, 0.0)
    if np.isscalar(w) and out.ndim == 0:
        return float(out)
    return out


def _sure_t(ay: np.ndarray) -> float:
    """Threshold minimizing Stein's unbiased risk on unit-variance data,
    given its magnitudes sorted ascending."""
    n = ay.size
    cum = np.cumsum(ay**2)
    k = np.arange(1, n + 1)
    risk = n - 2.0 * k + cum + (n - k) * ay**2
    return float(ay[int(np.argmin(risk))])


def _gcv_t(aw: np.ndarray) -> float:
    """Threshold minimizing generalized cross-validation for soft shrinkage,
    given the coefficients' magnitudes sorted ascending."""
    n = aw.size
    cum = np.cumsum(aw**2)
    k = np.arange(1, n + 1)
    resid = (cum + (n - k) * aw**2) / n
    gcv = resid / (k / n) ** 2
    return float(aw[int(np.argmin(gcv))])


def select_threshold(
    coeffs: DwtCoeffs, method: str, sigma: float | None = None
) -> float | list[float]:
    """Pick shrinkage threshold(s) for a wavelet decomposition.

    Pooled methods return one float; the methods ``SELECTORS`` marks per
    level return one threshold per detail level (finest first, matching
    ``coeffs.details``).

    Parameters
    ----------
    coeffs : DwtCoeffs
    method : str
        One of ``METHODS`` (case-insensitive).
    sigma : float, optional
        Noise level override; default is the MAD estimate from the finest
        detail level (per-level methods estimate per level).

    Raises
    ------
    ValueError
        Unknown method, a negative or non-finite ``sigma``, or every detail
        coefficient is exactly zero (nothing to estimate noise from).
    """
    method = canonical_method(method)
    mags = _Magnitudes.of(coeffs)
    return _threshold(method, coeffs, mags, _noise_sigmas(mags, sigma))


class _Magnitudes(NamedTuple):
    """``|d|`` of a decomposition's detail levels, sorted ascending: each
    level (finest first) and all levels pooled.

    Every selector reads these in place of sorting its own copy. Dividing by
    a positive s is monotone in floating point, so ``levels[j] / s`` equals
    ``np.sort(np.abs(d_j / s))`` bit for bit.
    """

    levels: list[np.ndarray]
    pooled: np.ndarray

    @classmethod
    def of(cls, coeffs: DwtCoeffs) -> _Magnitudes:
        levels = [np.sort(np.abs(np.asarray(d, dtype=float))) for d in coeffs.details]
        return cls(levels, np.sort(np.concatenate(levels)))


def _noise_sigmas(mags: _Magnitudes, sigma: float | None) -> Callable[[int], float]:
    """Noise level of detail level j (0 is the finest): ``sigma`` if given,
    else the level's MAD estimate, taken only when asked for, so a level no
    selector reads the noise of may hold fewer than MIN_MAD_COEFFS."""
    if sigma is not None and not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if not np.any(mags.pooled):
        raise ValueError("all detail coefficients are zero; nothing to threshold")
    if sigma is not None:
        return lambda j: float(sigma)
    return lambda j: _mad_sigma(mags.levels[j])


def _threshold(
    method: str, coeffs: DwtCoeffs, mags: _Magnitudes, sigma_at: Callable[[int], float]
) -> float | list[float]:
    """:func:`select_threshold` for a canonical method name, the sorted
    magnitudes of ``coeffs`` and noise levels. Pooled rules read the finest
    level's noise; per level, universal and SURE read each level's own,
    SUREShrink the finest level's, and GCV none."""
    rule, per_level, _ = SELECTORS[method]
    sigma_g = sigma_at(0)
    if not per_level:
        return _scaled_threshold(rule, mags.pooled, coeffs.original_length, sigma_g)
    own_noise = rule in ("universal", "sure")
    return [
        _scaled_threshold(rule, a, a.size, sigma_at(j) if own_noise else sigma_g, d)
        for j, (a, d) in enumerate(zip(mags.levels, coeffs.details))
    ]


def _scaled_threshold(
    rule: str, a: np.ndarray, n: int, s: float, d: np.ndarray | None = None
) -> float:
    """One threshold by ``rule`` for the sorted magnitudes ``a`` at noise
    level ``s``, n setting the universal threshold; SUREShrink also reads the
    raw coefficients ``d`` for its sparsity test."""
    if rule == "gcv":
        return _gcv_t(a) if np.any(a) else 0.0
    universal = float(np.sqrt(2.0 * np.log(n)))
    if rule == "universal":
        return s * universal
    if s == 0.0:
        return 0.0
    if rule == "sure":
        return s * _sure_t(a / s)
    sparse = (float(np.sum(np.divide(d, s) ** 2)) - n) / n <= float(np.log2(n) ** 1.5 / np.sqrt(n))
    return s * (universal if sparse else min(_sure_t(a / s), universal))


def denoise(
    x: np.ndarray,
    method: str = "SURE",
    rule: str = "garrote",
    level: int = 4,
    wavelet: str = "db3",
    sigma: float | None = None,
) -> np.ndarray:
    """De-noise a signal by wavelet shrinkage.

    Decomposes to ``level``, thresholds the detail levels with the chosen
    selector and rule (approximation untouched), reconstructs, and returns a
    signal of the original length.
    """
    coeffs = dwt_forward(x, level=level, wavelet=wavelet)
    thresholds = select_threshold(coeffs, method, sigma=sigma)
    return _shrink_and_invert(coeffs, [thresholds], [rule])[1][0]


def _shrink_and_invert(
    coeffs: DwtCoeffs, thresholds: list[float | list[float]], rules: list[str]
) -> tuple[list[tuple[float, ...]], np.ndarray]:
    """Shrink the detail levels once per row i, by thresholds[i] (one float
    serves every level) under rules[i], and invert all rows in one batched
    pass; returns each row's per-level thresholds and the (rows, n) signals.
    The levels are shrunk side by side, in one :func:`apply_shrinkage` call
    per rule on the rows that use it, each row's thresholds repeated across
    the coefficients of their level.
    """
    per_level = [
        (t,) * coeffs.level if isinstance(t, float) else tuple(t) for t in thresholds
    ]
    table = np.array(per_level, dtype=float)  # (rows, levels)
    sizes = [d.size for d in coeffs.details]
    details = np.concatenate(coeffs.details)
    shrunk = np.empty((len(rules), details.size))
    for r in dict.fromkeys(rules):
        rows = [i for i, ri in enumerate(rules) if ri == r]
        shrunk[rows] = apply_shrinkage(details, np.repeat(table[rows], sizes, axis=1), r)
    levels = tuple(np.split(shrunk, np.cumsum(sizes[:-1]), axis=1))
    approx = np.broadcast_to(coeffs.approx, (len(rules), coeffs.approx.size))
    return per_level, dwt_inverse(replace(coeffs, approx=approx, details=levels))


class Fidelity(NamedTuple):
    """SNR/PSNR of an estimate against a reference, in decibels.

    ``identical`` is True when the residual energy is exactly zero; snr and
    psnr are then infinite and reports should print the marker instead.
    """

    snr: float
    psnr: float
    identical: bool


def fidelity_metrics(reference: np.ndarray, estimate: np.ndarray) -> Fidelity:
    """SNR and PSNR of an estimate relative to a reference signal.

    SNR = 10 log10(sum(ref^2) / sum((ref - est)^2));
    PSNR = 10 log10(n * max(|ref|)^2 / sum((ref - est)^2)).

    Raises
    ------
    ValueError
        Length mismatch or a reference with zero energy.
    """
    ref = np.asarray(reference, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {est.shape}")
    return _fidelities(ref.ravel(), est.reshape(1, -1))[0]


def _fidelities(ref: np.ndarray, estimates: np.ndarray) -> list[Fidelity]:
    """:func:`fidelity_metrics` of each row of ``estimates`` against ``ref``:
    the reference's energy and peak once, the residual energies in one
    row-wise sum."""
    energy = float(np.sum(ref**2))
    if energy <= 0.0:
        raise ValueError("reference signal has zero energy")
    n = ref.size
    peak = float(np.max(np.abs(ref)))
    out = []
    for resid in np.sum((ref - estimates) ** 2, axis=-1).tolist():
        if resid == 0.0:
            out.append(Fidelity(snr=np.inf, psnr=np.inf, identical=True))
            continue
        snr = 10.0 * np.log10(energy / resid)
        psnr = 10.0 * np.log10(n * peak**2 / resid)
        out.append(Fidelity(snr=float(snr), psnr=float(psnr), identical=False))
    return out


@dataclass(frozen=True)
class MethodScore:
    """One sweep row: a method, the rule it ran with, its scores and its
    reconstruction (``estimate``, what :func:`denoise` returns for them)."""

    method: str
    rule: str
    thresholds: tuple[float, ...]
    snr: float
    psnr: float
    identical: bool
    estimate: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class DenoiseReport:
    """All nine methods scored on one signal, plus the scoring convention."""

    scores: tuple[MethodScore, ...]
    winner_snr: str
    winner_psnr: str
    convention: str

    def rows(self) -> list[tuple[str, str, str, float, float, bool]]:
        """Tabular form: (method, rule, thresholds joined by ';', snr, psnr, identical)."""
        return [
            (
                s.method,
                s.rule,
                ";".join(repr(t) for t in s.thresholds),
                s.snr,
                s.psnr,
                s.identical,
            )
            for s in self.scores
        ]


def method_sweep(
    x: np.ndarray,
    rule: str | None = None,
    level: int = 4,
    wavelet: str = "db3",
    reference: np.ndarray | None = None,
) -> DenoiseReport:
    """Run all nine threshold selectors on one signal and score them.

    Parameters
    ----------
    x : ndarray
        Signal to de-noise.
    rule : str, optional
        Shrinkage rule for every method. Default None pairs each method with
        its conventional rule (Universal/hard, VisuShrink/soft, SURE and
        GCV families/garrote).
    reference : ndarray, optional
        Scoring reference. Default is ``x`` itself; see the report's
        ``convention`` field for the caveat.

    Returns
    -------
    DenoiseReport
        Nine scores plus the winning method by SNR and by PSNR.

    Raises
    ------
    ValueError
        A signal shorter than :func:`sweep_min_length` at ``level``, a
        reference of another shape, an unknown rule, or what
        :func:`~comove.packets.dwt_forward` refuses.
    """
    x = np.asarray(x, dtype=float)
    ref = x if reference is None else np.asarray(reference, dtype=float)
    if ref.shape != x.shape:
        raise ValueError(f"shape mismatch: reference {ref.shape} vs signal {x.shape}")
    if rule is not None and rule not in SHRINKAGE_RULES:
        raise ValueError(f"unknown rule {rule!r}; have {SHRINKAGE_RULES}")
    need = sweep_min_length(level)
    if level >= 1 and x.size < need:  # dwt_forward names a level below 1
        raise ValueError(f"the sweep at level {level} needs at least {need} samples, got {x.size}")
    coeffs = dwt_forward(x, level=level, wavelet=wavelet)
    mags = _Magnitudes.of(coeffs)
    sigma_at = _noise_sigmas(mags, None)
    thresholds = [_threshold(method, coeffs, mags, sigma_at) for method in METHODS]
    rules = [rule if rule is not None else CONVENTIONAL_RULE[m] for m in METHODS]
    per_level, estimates = _shrink_and_invert(coeffs, thresholds, rules)
    scores = [
        MethodScore(
            method=method,
            rule=use_rule,
            thresholds=ts,
            snr=fid.snr,
            psnr=fid.psnr,
            identical=fid.identical,
            estimate=est,
        )
        for method, use_rule, ts, est, fid in zip(
            METHODS, rules, per_level, estimates, _fidelities(ref, estimates)
        )
    ]
    best_snr = max(scores, key=lambda s: s.snr).method
    best_psnr = max(scores, key=lambda s: s.psnr).method
    return DenoiseReport(
        scores=tuple(scores),
        winner_snr=best_snr,
        winner_psnr=best_psnr,
        convention=_SWEEP_CONVENTION,
    )
