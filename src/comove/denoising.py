"""Wavelet shrinkage de-noising with data-driven threshold selection.

Nine selectors, four threshold rules (universal, SURE, their SUREShrink
hybrid, GCV) each over the pooled detail levels or per level as ``SELECTORS``
says, combined with three shrinkage rules (hard, soft, garrote). The noise level
is always estimated from the data, by the median absolute deviation of the
finest detail level (of each level, for the per-level universal and SURE
selectors). Approximation coefficients are never thresholded.

The method sweep reports SNR/PSNR of each method's reconstruction against the
input itself, so larger means gentler; the convention string travels inside
the report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .packets import _count, _dwt, _idwt, _signal

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
    "SNR/PSNR measured against the original input, so larger means a gentler "
    "de-noising, not closer to the truth."
)


def canonical_method(method: str) -> str:
    """Map a case/punctuation-insensitive method name to its canonical form."""
    key = method.replace("_", "").replace("-", "").lower()
    for name in SELECTORS:
        if name.lower() == key:
            return name
    raise ValueError(f"unknown method {method!r}; have {METHODS}")


def _mad_sigma(magnitudes: np.ndarray) -> float:
    """MAD noise estimate ``median(|d|) / 0.6745`` from the sorted ``|d|`` of a
    detail level: the median as ``np.median`` takes it, the middle value or the
    mean of the middle two. Needs at least MIN_MAD_COEFFS (8) coefficients for
    the median to mean anything."""
    n = magnitudes.size
    if n < MIN_MAD_COEFFS:
        raise ValueError(f"need at least {MIN_MAD_COEFFS} coefficients, got {n}")
    mid = magnitudes[n // 2] if n % 2 else (magnitudes[n // 2 - 1] + magnitudes[n // 2]) / 2.0
    return float(mid / MAD_SCALE)


def sweep_max_level(n: int) -> int:
    """The deepest level :func:`method_sweep` takes on n samples.

    The per-level selectors estimate the noise at every detail level from
    at least MIN_MAD_COEFFS coefficients, and the coarsest holds
    ceil(n / 2**level), so a level needs (MIN_MAD_COEFFS - 1) * 2**level < n.
    """
    return max(0, ((n - 1) // (MIN_MAD_COEFFS - 1)).bit_length() - 1)


def _shrink(w: np.ndarray, t: np.ndarray | float, rule: str) -> np.ndarray:
    """Shrink the coefficients ``w`` elementwise at the thresholds ``t``, which the
    selectors make finite and nonnegative and which broadcast against ``w``: a
    column of k thresholds against a length-n ``w`` gives the (k, n) stack of
    the k single-threshold calls, element for element.

    hard zeroes below the threshold and keeps the rest; soft also pulls
    survivors toward zero by the threshold; garrote shrinks survivors by
    ``t**2 / w``, so large coefficients are nearly untouched. Any other rule is
    garrote: :func:`_denoised`, the one path that reaches this, refuses it first.
    """
    keep = np.abs(w) > t
    if rule == "hard":
        return np.where(keep, w, 0.0)
    if rule == "soft":
        return np.where(keep, np.sign(w) * (np.abs(w) - t), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shrunk = w - t**2 / w
    return np.where(keep, shrunk, 0.0)


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


def _thresholds(methods: list[str], details: list[np.ndarray], n: int) -> np.ndarray:
    """The shrinkage thresholds of each canonical method name for the detail levels
    (finest first) of an n-sample signal: one (methods, levels) table, a pooled
    method's threshold repeated across its row. Each level's ``|d|`` fills a row of
    one zero-padded table and the pooled levels are sorted once; a row is sorted
    only when a per-level rule, or the finest level's MAD, reads it. All
    magnitudes are finite and nonnegative, so the pooled sort is one array
    whatever order it starts from, and dividing by a positive s is monotone in
    floating point, so a sorted row over s equals ``np.sort(np.abs(d / s))`` bit
    for bit. Pooled rules read the finest level's noise; per level, universal
    and SURE read each level's own, SUREShrink the finest level's, and GCV none.
    The noise is the level's MAD estimate, taken only when read, so a level no
    selector reads the noise of may hold fewer than MIN_MAD_COEFFS; a zero
    noise level gives a zero threshold. Each rule takes all levels in one array
    pass: universal as one vector, SURE at each level's own noise and at the
    finest level's as the rows of one table, GCV as another. SUREShrink's
    sparsity test sums each level's raw coefficients and compares all levels
    with the bound log2(m)**1.5 / sqrt(m) of their sizes m in one array.

    Raises
    ------
    ValueError
        Every detail coefficient is exactly zero (nothing to estimate noise
        from), or a level whose noise is read holds fewer than MIN_MAD_COEFFS.
    """
    kinds = [SELECTORS[m][:2] for m in methods]
    per = {rule for rule, per_level in kinds if per_level}
    table = np.zeros((len(details), max(map(np.size, details))))
    levels = [np.abs(d, out=table[j, : np.size(d)]) for j, d in enumerate(details)]
    for j, a in enumerate(levels):
        if per or j == 0:
            a.sort()
    pooled = np.sort(np.concatenate(levels))
    if not pooled.any():
        raise ValueError("all detail coefficients are zero; nothing to threshold")
    s_g, size = _mad_sigma(levels[0]), np.array([[pooled.size]], dtype=float)
    got = {}  # (rule, per level): a float, or one per level
    if ("universal", False) in kinds:
        got["universal", False] = s_g * float(np.sqrt(2.0 * np.log(n)))
    if ("sure", False) in kinds:
        got["sure", False] = s_g * float(_minimizers("sure", pooled[None] / (s_g or 1.0), size)[0])
    if ("gcv", False) in kinds:
        got["gcv", False] = float(_minimizers("gcv", pooled[None], size)[0])
    sizes = np.array([[a.size] for a in levels], dtype=float)
    universal = np.sqrt(2.0 * np.log(sizes))
    if per & {"universal", "sure"}:
        own = np.array([[_mad_sigma(a)] for a in levels])
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
        m, su = sizes.ravel(), (s_g * universal).ravel()  # s = 0 gives t = u = 0 either way
        stat = (np.array([((d / (s_g or 1.0)) ** 2).sum() for d in details]) - m) / m
        sparse = stat <= np.log2(m) ** 1.5 / np.sqrt(m)  # too sparse for SURE: the universal threshold serves
        got["sureshrink", True] = np.where(sparse, su, np.minimum(got["sureshrink", True], su)).tolist()
    if "gcv" in per:
        got["gcv", True] = _minimizers("gcv", table, sizes).tolist()
    return np.array([got[rule, per_level] if per_level else [got[rule, per_level]] * len(details)
                     for rule, per_level in kinds])


def denoise(
    x: np.ndarray,
    method: str = "SURE",
    rule: str | None = None,
    level: int = 4,
    wavelet: str = "db3",
) -> np.ndarray:
    """De-noise a signal by wavelet shrinkage.

    Decomposes to ``level``, thresholds the detail levels with the chosen
    selector and rule (approximation untouched), reconstructs, and returns a
    signal of the original length: row ``METHODS.index(method)`` of the
    sweep's estimates under ``rule``, on the sweep's own path. Default None
    pairs the method with its conventional rule, as the sweep does.

    Raises
    ------
    ValueError
        An unknown method or rule, a level the sweep refuses (not a positive
        integer, or past :func:`sweep_max_level` of the signal's length), all
        detail coefficients zero, or a signal the transform refuses.
    """
    method = canonical_method(method)
    rule = CONVENTIONAL_RULE[method] if rule is None else rule
    _, estimates, e = _denoised(_signal(x), [method], (rule,), level, wavelet)
    return np.ldexp(estimates[0], e)


def _denoised(x: np.ndarray, methods: list[str], rules: tuple[str, ...], level: int,
              wavelet: str) -> tuple[np.ndarray, np.ndarray, int]:
    """The one path of :func:`denoise` and :func:`method_sweep`, on a checked signal: the
    rule and level checks, the DWT, the (methods, levels) threshold table, and the
    (methods, n) estimates, row i shrunk under rules[i], in units of 2**e. It runs on
    x / 2**e, max|x| = f 2**e with 1/2 <= f < 1, which is exact: no square overflows or
    underflows, and x * 2**k gives thresholds and estimates times 2**k exactly. A constant
    signal has exactly zero details, whatever rounding the transform leaves, and is refused."""
    unknown = [r for r in rules if r not in SHRINKAGE_RULES]
    if unknown:
        raise ValueError(f"unknown rule {unknown[0]!r}; have {SHRINKAGE_RULES}")
    n = x.size
    deepest = sweep_max_level(n)
    if _count("level", level) > deepest:
        raise ValueError(f"level {level} exceeds {deepest}, the deepest the sweep takes on {n} samples")
    top, bottom = np.max(x), np.min(x)
    e = math.frexp(max(top, -bottom))[1]
    c = _dwt(np.ldexp(x, -e), level, wavelet)
    if top == bottom:
        raise ValueError("all detail coefficients are zero; nothing to threshold")
    thresholds = _thresholds(methods, [c[c.size >> (j + 1) : c.size >> j] for j in range(level)], n)
    return np.ldexp(thresholds, e), _shrink_and_invert(c, level, wavelet, n, thresholds, rules), e


def _shrink_and_invert(c: np.ndarray, level: int, wavelet: str, n: int, thresholds: np.ndarray,
                       rules: tuple[str, ...]) -> np.ndarray:
    """Shrink the detail slice ``c[P >> level :]`` of a :func:`~comove.packets._dwt`
    array by row i of the (rows, levels) ``thresholds`` (finest level first) under
    rules[i], in one :func:`_shrink` call per run of rows sharing a rule (in the
    sweep, one per distinct rule), and invert all rows in one batched pass into
    (rows, n) signals. The thresholds are repeated across their level's
    coefficients, coarsest first as the array holds them."""
    m = c.size >> level
    cut = np.repeat(thresholds[:, ::-1], [m << k for k in range(level)], axis=1)
    shrunk, row = np.empty((len(rules), c.size)), 0
    shrunk[:, :m] = c[:m]
    for r, run in itertools.groupby(rules):
        rows = slice(row, row + len(list(run)))
        shrunk[rows, m:] = _shrink(c[m:], cut[rows], r)
        row = rows.stop
    return _idwt(shrunk, level, wavelet, n)


def _fidelities(ref: np.ndarray, estimates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SNR = 10 log10(sum(ref^2) / sum((ref - est)^2)) and PSNR = 10 log10(n *
    max(|ref|)^2 / sum((ref - est)^2)) of each row ``est`` of ``estimates``
    against ``ref``, as arrays snr, psnr and identical: the reference's energy
    and peak once, the residual energies and the decibels of all rows in one
    pass each. A zero residual is identical and gives infinite decibels. The
    sweep passes both in its power-of-two units, where no square overflows and
    the decibels are exact; it refuses a constant signal, so ``ref`` has energy."""
    energy = float((ref**2).sum())
    n = ref.size
    peak = float(np.abs(ref).max())
    resid = ((ref - estimates) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(energy / resid), 10.0 * np.log10(n * peak**2 / resid), resid == 0.0


@dataclass(frozen=True)
class DenoiseReport:
    """All nine methods scored on one signal, one table whose row i is METHODS[i]: its
    rule, thresholds (finest level first), scores and reconstruction (``estimates``
    row i, what :func:`denoise` returns for it); plus the scoring convention."""

    rules: tuple[str, ...]
    thresholds: np.ndarray
    snr: np.ndarray
    psnr: np.ndarray
    identical: np.ndarray
    estimates: np.ndarray = field(repr=False)
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
) -> DenoiseReport:
    """Run all nine threshold selectors on one signal and score them against it.

    Parameters
    ----------
    x : ndarray
        Signal to de-noise.
    rule : str, optional
        Shrinkage rule for every method. Default None pairs each method with
        its conventional rule (Universal/hard, VisuShrink/soft, SURE and
        GCV families/garrote).

    Returns
    -------
    DenoiseReport
        The nine methods' thresholds, scores and estimates.

    Raises
    ------
    ValueError
        A level that is not a positive integer or exceeds
        :func:`sweep_max_level` of the signal's length, an unknown rule, all
        detail coefficients zero, or a signal the transform refuses.
    """
    x = _signal(x)
    rules = tuple(rule if rule is not None else CONVENTIONAL_RULE[m] for m in METHODS)
    thresholds, estimates, e = _denoised(x, list(METHODS), rules, level, wavelet)
    return DenoiseReport(rules, thresholds, *_fidelities(np.ldexp(x, -e), estimates),
                         np.ldexp(estimates, e), _SWEEP_CONVENTION)
