"""Wavelet shrinkage de-noising with data-driven threshold selection.

Nine selector variants (Universal, VisuShrink, SURE, GCV, their per-level
forms, and the hybrid SUREShrink) combined with three shrinkage rules (hard,
soft, garrote). Noise level is estimated from the finest detail level by the
median absolute deviation. Approximation coefficients are never thresholded.

The method sweep reports SNR/PSNR of each method's reconstruction against the
supplied reference (by default the input itself, so larger means gentler);
the convention string travels inside the report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .packets import DwtCoeffs, dwt_forward, dwt_inverse

MAD_SCALE = 0.6745
SHRINKAGE_RULES = ("hard", "soft", "garrote")
METHODS = (
    "Universal",
    "UniversalLevel",
    "VisuShrink",
    "VisuShrinkLevel",
    "SURE",
    "SURELevel",
    "SUREShrink",
    "GCV",
    "GCVLevel",
)
CONVENTIONAL_RULE = {
    "Universal": "hard",
    "UniversalLevel": "hard",
    "VisuShrink": "soft",
    "VisuShrinkLevel": "soft",
    "SURE": "garrote",
    "SURELevel": "garrote",
    "SUREShrink": "garrote",
    "GCV": "garrote",
    "GCVLevel": "garrote",
}
_SWEEP_CONVENTION = (
    "SNR/PSNR measured against the supplied reference (default: the original "
    "input), so larger means a gentler de-noising, not closer to the truth."
)


def canonical_method(method: str) -> str:
    """Map a case/punctuation-insensitive method name to its canonical form."""
    key = method.replace("_", "").replace("-", "").lower()
    for name in METHODS:
        if name.lower() == key:
            return name
    raise ValueError(f"unknown method {method!r}; have {METHODS}")


def estimate_noise_sigma(detail: np.ndarray) -> float:
    """MAD noise estimate ``median(|d|) / 0.6745`` from detail coefficients.

    Needs at least 8 coefficients for the median to mean anything.
    """
    detail = np.asarray(detail, dtype=float)
    if detail.size < 8:
        raise ValueError(f"need at least 8 coefficients, got {detail.size}")
    return float(np.median(np.abs(detail)) / MAD_SCALE)


def apply_shrinkage(
    w: np.ndarray | float, threshold: float, rule: str = "soft"
) -> np.ndarray | float:
    """Apply a shrinkage rule elementwise.

    hard zeroes below the threshold and keeps the rest; soft also pulls
    survivors toward zero by the threshold; garrote shrinks survivors by
    ``t**2 / w``, so large coefficients are nearly untouched.

    Raises
    ------
    ValueError
        Negative or non-finite threshold, or an unknown rule.
    """
    t = float(threshold)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
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
    if np.isscalar(w):
        return float(out)
    return out


def _sure_t(y: np.ndarray) -> float:
    """Threshold minimizing Stein's unbiased risk on unit-variance data."""
    n = y.size
    ay = np.sort(np.abs(y))
    cum = np.cumsum(ay**2)
    k = np.arange(1, n + 1)
    risk = n - 2.0 * k + cum + (n - k) * ay**2
    return float(ay[int(np.argmin(risk))])


def _gcv_t(w: np.ndarray) -> float:
    """Threshold minimizing generalized cross-validation for soft shrinkage."""
    n = w.size
    aw = np.sort(np.abs(w))
    cum = np.cumsum(aw**2)
    k = np.arange(1, n + 1)
    resid = (cum + (n - k) * aw**2) / n
    gcv = resid / (k / n) ** 2
    return float(aw[int(np.argmin(gcv))])


def select_threshold(
    coeffs: DwtCoeffs, method: str, sigma: float | None = None
) -> float | list[float]:
    """Pick shrinkage threshold(s) for a wavelet decomposition.

    Global methods return one float; Level variants return one threshold per
    detail level (finest first, matching ``coeffs.details``).

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
        Unknown method, or every detail coefficient is exactly zero (nothing
        to estimate noise from).
    """
    method = canonical_method(method)
    details = [np.asarray(d, dtype=float) for d in coeffs.details]
    if all(not np.any(d) for d in details):
        raise ValueError("all detail coefficients are zero; nothing to threshold")
    n = coeffs.original_length
    sigma_g = estimate_noise_sigma(details[0]) if sigma is None else float(sigma)

    if method in ("Universal", "VisuShrink"):
        return sigma_g * float(np.sqrt(2.0 * np.log(n)))

    if method in ("UniversalLevel", "VisuShrinkLevel"):
        out = []
        for d in details:
            s_j = estimate_noise_sigma(d) if sigma is None else float(sigma)
            out.append(s_j * float(np.sqrt(2.0 * np.log(d.size))))
        return out

    if method == "SURE":
        pooled = np.concatenate(details)
        if sigma_g == 0.0:
            return 0.0
        return sigma_g * _sure_t(pooled / sigma_g)

    if method == "SURELevel":
        out = []
        for d in details:
            s_j = estimate_noise_sigma(d) if sigma is None else float(sigma)
            out.append(0.0 if s_j == 0.0 else s_j * _sure_t(d / s_j))
        return out

    if method == "SUREShrink":
        out = []
        for d in details:
            n_j = d.size
            universal = float(np.sqrt(2.0 * np.log(n_j)))
            if sigma_g == 0.0:
                out.append(0.0)
                continue
            y = d / sigma_g
            sparsity = (float(np.sum(y**2)) - n_j) / n_j
            gate = float(np.log2(n_j) ** 1.5 / np.sqrt(n_j))
            if sparsity <= gate:
                t = universal
            else:
                t = min(_sure_t(y), universal)
            out.append(sigma_g * t)
        return out

    if method == "GCV":
        return _gcv_t(np.concatenate(details))

    # GCVLevel
    return [_gcv_t(d) if np.any(d) else 0.0 for d in details]


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
    return _shrink_and_invert(coeffs, thresholds, rule)[1]


def _shrink_and_invert(
    coeffs: DwtCoeffs, thresholds: float | list[float], rule: str
) -> tuple[tuple[float, ...], np.ndarray]:
    """Shrink each detail level by its threshold (one float serves every
    level) and invert; returns the per-level thresholds and the signal."""
    if isinstance(thresholds, float):
        thresholds = [thresholds] * coeffs.level
    per_level = tuple(thresholds)
    shrunk = tuple(apply_shrinkage(d, t, rule) for d, t in zip(coeffs.details, per_level))
    return per_level, dwt_inverse(replace(coeffs, details=shrunk))


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
    energy = float(np.sum(ref**2))
    if energy <= 0.0:
        raise ValueError("reference signal has zero energy")
    resid = float(np.sum((ref - est) ** 2))
    if resid == 0.0:
        return Fidelity(snr=np.inf, psnr=np.inf, identical=True)
    n = ref.size
    peak = float(np.max(np.abs(ref)))
    snr = 10.0 * np.log10(energy / resid)
    psnr = 10.0 * np.log10(n * peak**2 / resid)
    return Fidelity(snr=float(snr), psnr=float(psnr), identical=False)


@dataclass(frozen=True)
class MethodScore:
    """One sweep row: a method, the rule it ran with, and its scores."""

    method: str
    rule: str
    thresholds: tuple[float, ...]
    snr: float
    psnr: float
    identical: bool


@dataclass(frozen=True)
class DenoiseReport:
    """All nine methods scored on one signal, plus the scoring convention."""

    series_name: str
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
    series_name: str = "",
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
    """
    x = np.asarray(x, dtype=float)
    ref = x if reference is None else np.asarray(reference, dtype=float)
    if rule is not None and rule not in SHRINKAGE_RULES:
        raise ValueError(f"unknown rule {rule!r}; have {SHRINKAGE_RULES}")
    coeffs = dwt_forward(x, level=level, wavelet=wavelet)
    scores = []
    for method in METHODS:
        use_rule = rule if rule is not None else CONVENTIONAL_RULE[method]
        thresholds = select_threshold(coeffs, method)
        per_level, est = _shrink_and_invert(coeffs, thresholds, use_rule)
        fid = fidelity_metrics(ref, est)
        scores.append(
            MethodScore(
                method=method,
                rule=use_rule,
                thresholds=per_level,
                snr=fid.snr,
                psnr=fid.psnr,
                identical=fid.identical,
            )
        )
    best_snr = max(scores, key=lambda s: s.snr).method
    best_psnr = max(scores, key=lambda s: s.psnr).method
    return DenoiseReport(
        series_name=series_name,
        scores=tuple(scores),
        winner_snr=best_snr,
        winner_psnr=best_psnr,
        convention=_SWEEP_CONVENTION,
    )
