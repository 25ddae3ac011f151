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

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .packets import DwtCoeffs, _shortfall, dwt_forward, dwt_inverse

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
WINNER_TOL_DB = 1e-9  # sweep scores this close to the best tie; an absolute gap in dB is scale-free
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
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) < np.inf):  # NaN fails both
        bad = ~(np.isfinite(t) & (t >= 0))
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
    if out.ndim == 0 and np.isscalar(w):
        return float(out)
    return out


def _minimizers(rule: str, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per row of ``y``, whose first n entries (n a column, one count per row)
    are magnitudes sorted ascending and the rest zero padding, the one
    minimizing Stein's unbiased risk on unit-variance data (``"sure"``:
    n - 2k + cum + (n - k) y**2) or the GCV score of soft shrinkage
    (``"gcv"``: (cum + (n - k) y**2) / n / (k / n)**2), each summed in that
    order. The padding is masked after the arithmetic; the pooled levels,
    one unpadded row, have none."""
    k = np.arange(1.0, y.shape[-1] + 1.0)
    y2 = y**2
    score = y2.cumsum(axis=-1)
    if rule == "sure":
        score += n - 2.0 * k
    score += (n - k) * y2
    if rule == "gcv":
        score /= n
        score /= (k / n) ** 2
    np.copyto(score, np.inf, where=k > n)
    return y[np.arange(len(y)), score.argmin(axis=-1)]


def _sparse(d: np.ndarray, s: float) -> bool:
    """SUREShrink's test that a detail level at noise s > 0 is too sparse
    for SURE, so the universal threshold serves it."""
    n = np.size(d)
    return (float((np.divide(d, s) ** 2).sum()) - n) / n <= _sparsity_bound(n)


@functools.lru_cache(maxsize=1024)
def _sparsity_bound(n: int) -> float:
    """log2(n)**1.5 / sqrt(n), the right side of :func:`_sparse`, once per level size, on
    numpy's scalar route: over an array the expression differs in the last bit at 226
    of the sizes 1..4999 (first 40, 44, 57, 128), which flips SUREShrink between its
    universal and SURE thresholds at a level whose statistic lands on the bound."""
    return float(np.log2(n) ** 1.5 / np.sqrt(n))


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
    row = _thresholds([method], coeffs, sigma)[0]
    return row.tolist() if SELECTORS[method][1] else float(row[0])


def _thresholds(methods: list[str], coeffs: DwtCoeffs, sigma: float | None) -> np.ndarray:
    """:func:`select_threshold` for each canonical method name: one (methods, levels)
    table, a pooled method's threshold repeated across its row. Every level's
    ``|d|`` is sorted into a row of one zero-padded table, and the pooled levels
    are sorted once; dividing by a positive s is monotone in floating point, so
    a sorted row over s equals ``np.sort(np.abs(d / s))`` bit for bit. Pooled
    rules read the finest level's noise; per level, universal and SURE read each
    level's own, SUREShrink the finest level's, and GCV none. The noise is
    ``sigma`` if given, else the level's MAD estimate, taken only when read,
    so a level no selector reads the noise of may hold fewer than
    MIN_MAD_COEFFS; a zero noise level gives a zero threshold. Each rule
    takes all levels in one array pass: universal as one vector, SURE at
    each level's own noise and at the finest level's as the rows of one
    table, GCV as another; SUREShrink's sparsity test sums each level's raw
    coefficients."""
    kinds = [SELECTORS[m][:2] for m in methods]
    per = {rule for rule, per_level in kinds if per_level}
    table = np.zeros((coeffs.level, max(map(np.size, coeffs.details))))
    levels = [np.abs(d, out=table[j, : np.size(d)]) for j, d in enumerate(coeffs.details)]
    for a in levels:
        a.sort()
    pooled = np.sort(np.concatenate(levels))
    if sigma is not None and not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if not pooled.any():
        raise ValueError("all detail coefficients are zero; nothing to threshold")

    def sigma_at(j: int) -> float:
        return float(sigma) if sigma is not None else _mad_sigma(levels[j])

    s_g, n = sigma_at(0), np.array([[pooled.size]], dtype=float)
    got = {}  # (rule, per level): a float, or one per level
    if ("universal", False) in kinds:
        got["universal", False] = s_g * float(np.sqrt(2.0 * np.log(coeffs.original_length)))
    if ("sure", False) in kinds:
        got["sure", False] = s_g * float(_minimizers("sure", pooled[None] / (s_g or 1.0), n)[0])
    if ("gcv", False) in kinds:
        got["gcv", False] = float(_minimizers("gcv", pooled[None], n)[0])
    sizes = np.array([[a.size] for a in levels], dtype=float)
    universal = np.sqrt(2.0 * np.log(sizes))
    if per & {"universal", "sure"}:
        own = np.array([[sigma_at(j)] for j in range(len(sizes))])
        got["universal", True] = (own * universal).ravel().tolist()
    # per level, SURE at each level's own noise and at the finest level's: one table
    noise = {r: own if r == "sure" else np.full(sizes.shape, s_g)
             for r in ("sure", "sureshrink") if r in per}
    if noise:
        s = np.concatenate(list(noise.values()))
        y = np.concatenate([table] * len(noise)) / np.where(s > 0.0, s, 1.0)
        sure = s.ravel() * _minimizers("sure", y, np.concatenate([sizes] * len(noise)))
        got.update(((r, True), t) for r, t in zip(noise, sure.reshape(len(noise), -1).tolist()))
    if "sureshrink" in per:  # s * min(t, u) is min(s * t, s * u): s >= 0 keeps the order
        su = (s_g * universal).ravel().tolist()
        got["sureshrink", True] = [u if s_g == 0.0 or _sparse(d, s_g) else min(t, u)
                                   for d, u, t in zip(coeffs.details, su, got["sureshrink", True])]
    if "gcv" in per:
        got["gcv", True] = _minimizers("gcv", table, sizes).tolist()
    return np.array([got[rule, per_level] if per_level else [got[rule, per_level]] * coeffs.level
                     for rule, per_level in kinds])


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
    return _shrink_and_invert(coeffs, _thresholds([canonical_method(method)], coeffs, sigma), (rule,))[0]


def _shrink_and_invert(coeffs: DwtCoeffs, thresholds: np.ndarray, rules: tuple[str, ...]) -> np.ndarray:
    """Shrink the detail levels by row i of the (rows, levels) ``thresholds``
    under rules[i], side by side in one :func:`apply_shrinkage` call per run
    of rows sharing a rule (in the sweep, one per distinct rule), and invert
    all rows in one batched pass into (rows, n) signals. The thresholds are
    repeated across their level's coefficients."""
    sizes = [d.size for d in coeffs.details]
    cut = np.repeat(thresholds, sizes, axis=1)
    details = np.concatenate(coeffs.details)
    shrunk, row = np.empty((len(rules), details.size)), 0
    for r, run in itertools.groupby(rules):
        rows = slice(row, row + len(list(run)))
        shrunk[rows] = apply_shrinkage(details, cut[rows], r)
        row = rows.stop
    bounds = [0, *itertools.accumulate(sizes)]
    levels = tuple(shrunk[:, lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    approx = coeffs.approx[None].repeat(len(rules), axis=0)
    return dwt_inverse(
        DwtCoeffs(approx, levels, coeffs.wavelet, coeffs.original_length, coeffs.padded_length))


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
    return Fidelity(*(a.item() for a in _fidelities(ref.ravel(), est.reshape(1, -1))))


def _fidelities(ref: np.ndarray, estimates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fidelity_metrics` of each row of ``estimates`` against ``ref`` as arrays snr, psnr
    and identical: the reference's energy and peak once, the residual energies and the
    decibels of all rows in one pass each (a zero residual gives infinite decibels)."""
    energy = float((ref**2).sum())
    if energy <= 0.0:
        raise ValueError("reference signal has zero energy")
    n = ref.size
    peak = float(np.abs(ref).max())
    resid = ((ref - estimates) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(energy / resid), 10.0 * np.log10(n * peak**2 / resid), resid == 0.0


@dataclass(frozen=True)
class DenoiseReport:
    """All nine methods scored on one signal, one table whose row i is METHODS[i]: its
    rule, thresholds (finest level first), scores and reconstruction (``estimates``
    row i, what :func:`denoise` returns for it); plus the winners and the convention."""

    rules: tuple[str, ...]
    thresholds: np.ndarray
    snr: np.ndarray
    psnr: np.ndarray
    identical: np.ndarray
    estimates: np.ndarray = field(repr=False)
    winner_snr: str
    winner_psnr: str
    convention: str

    def rows(self) -> list[tuple[str, str, str, float, float, bool]]:
        """Tabular form: (method, rule, thresholds joined by ';', snr, psnr, identical)."""
        return [
            (method, rule, ";".join(map(repr, ts)), snr, psnr, same)
            for method, rule, ts, snr, psnr, same in zip(
                METHODS, self.rules, self.thresholds.tolist(), self.snr.tolist(), self.psnr.tolist(),
                self.identical.tolist())
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
        Nine scores plus the winning method by SNR and by PSNR: of the
        methods within ``WINNER_TOL_DB`` of the best, the first in METHODS.

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
    need = _shortfall(x.size, level, sweep_min_length)
    if level >= 1 and need is not None:  # dwt_forward names a level below 1
        raise ValueError(f"the sweep at level {level} needs at least {need} samples, got {x.size}")
    coeffs = dwt_forward(x, level=level, wavelet=wavelet)
    thresholds = _thresholds(list(METHODS), coeffs, None)
    rules = tuple(rule if rule is not None else CONVENTIONAL_RULE[m] for m in METHODS)
    estimates = _shrink_and_invert(coeffs, thresholds, rules)
    snr, psnr, identical = _fidelities(ref, estimates)
    # the first method in METHODS order within WINNER_TOL_DB of the best wins,
    # so rounding does not choose between selectors that reach one estimate
    win_snr, win_psnr = (METHODS[int(np.argmax(s >= s.max() - WINNER_TOL_DB))] for s in (snr, psnr))
    return DenoiseReport(rules, thresholds, snr, psnr, identical, estimates, win_snr, win_psnr, _SWEEP_CONVENTION)
