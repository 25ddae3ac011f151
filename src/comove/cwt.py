"""Continuous wavelet transform with the analytic Morlet wavelet.

The transform is computed in the Fourier domain on a zero-padded copy of the
(demeaned) signal, over a dyadic scale grid. Cross-spectra between two
transforms and the separable time/scale smoothing operator used by the
coherence estimators live here too, so every consumer shares one set of
conventions (scale grid, cone of influence, smoothing spans).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np
from scipy.fft import dct, idct, ifft, rfft

OMEGA0 = 6.0
DEFAULT_DJ = 1.0 / 12.0
SCALE_SMOOTH_OCTAVES = 0.6
_COI_EDGE_FLOOR = 1e-5


def morlet_fourier_factor(omega0: float = OMEGA0) -> float:
    """Conversion factor from Morlet scale to Fourier period.

    Parameters
    ----------
    omega0 : float
        Dimensionless center frequency of the wavelet.

    Returns
    -------
    float
        ``4 * pi / (omega0 + sqrt(2 + omega0**2))``; for omega0 = 6 this is
        about 1.033, so scale and Fourier period nearly coincide.
    """
    return 4.0 * np.pi / (omega0 + np.sqrt(2.0 + omega0**2))


@dataclass(frozen=True)
class ScaleGrid:
    """Dyadic scale grid ``s_j = s0 * 2**(j * dj)``, j = 0..num_scales-1."""

    s0: float
    dj: float
    num_scales: int
    scales: np.ndarray
    fourier_factor: float

    def __post_init__(self) -> None:
        scales = np.asarray(self.scales, dtype=float)
        scales.flags.writeable = False
        object.__setattr__(self, "scales", scales)

    def periods(self) -> np.ndarray:
        """Equivalent Fourier periods, ``fourier_factor * scales``."""
        return self.fourier_factor * self.scales

    def matches(self, other: "ScaleGrid") -> bool:
        return (
            self.num_scales == other.num_scales
            and np.allclose(self.scales, other.scales, rtol=0, atol=0)
        )


def make_scale_grid(
    n: int,
    dt: float,
    s0: float | None = None,
    dj: float = DEFAULT_DJ,
) -> ScaleGrid:
    """Build the default dyadic scale grid for a signal of length n.

    Parameters
    ----------
    n : int
        Signal length in samples, at least 8.
    dt : float
        Sampling step.
    s0 : float, optional
        Smallest scale; defaults to ``2 * dt``.
    dj : float, optional
        Scale resolution in octaves (default 1/12, twelve voices per octave).

    Returns
    -------
    ScaleGrid
        With ``num_scales = floor(log2(n * dt / s0) / dj) + 1`` scales, so the
        largest scale does not exceed the record length ``n * dt``.

    Raises
    ------
    ValueError
        If n < 8, or s0/dj are not positive, or s0 exceeds the record length.
    """
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    if s0 is None:
        s0 = 2.0 * dt
    if not (np.isfinite(s0) and s0 > 0):
        raise ValueError(f"s0 must be positive, got {s0}")
    if not (np.isfinite(dj) and dj > 0):
        raise ValueError(f"dj must be positive, got {dj}")
    span = n * dt / s0
    if span < 1.0:
        raise ValueError(f"smallest scale {s0} exceeds record length {n * dt}")
    num = int(np.floor(np.log2(span) / dj)) + 1
    j = np.arange(num)
    scales = s0 * 2.0 ** (j * dj)
    return ScaleGrid(
        s0=float(s0),
        dj=float(dj),
        num_scales=num,
        scales=scales,
        fourier_factor=morlet_fourier_factor(),
    )


@dataclass(frozen=True)
class WaveletField:
    """CWT coefficients of one series on a scale grid.

    Attributes
    ----------
    coeffs : ndarray, complex, shape (num_scales, n)
        Wavelet coefficients, one row per scale.
    grid : ScaleGrid
        The scale grid the rows correspond to.
    dt : float
        Sampling step of the underlying signal.
    coi : ndarray, float, shape (n,)
        Cone of influence: the largest trustworthy scale at each time. Values
        below a row's scale mark coefficients dominated by edge effects.
    """

    coeffs: np.ndarray
    grid: ScaleGrid
    dt: float
    coi: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        coi = np.asarray(self.coi, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != self.grid.num_scales:
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match "
                f"{self.grid.num_scales} scales"
            )
        if coi.shape != (coeffs.shape[1],):
            raise ValueError("coi length must match the time axis")
        coeffs.flags.writeable = False
        coi.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "coi", coi)

    @property
    def n_times(self) -> int:
        return int(self.coeffs.shape[1])

    def outside_coi(self) -> np.ndarray:
        """Boolean (num_scales, n) mask, True where edge effects dominate."""
        return self.grid.scales[:, None] > self.coi[None, :]


@functools.lru_cache(maxsize=4)
def _morlet_window(scales: tuple[float, ...], npad: int, dt: float) -> np.ndarray:
    """Morlet window per scale on FFT columns 1 .. npad/2 - 1, the positive
    frequencies and the only ones where it is nonzero. Cached per grid, so
    the result is read-only."""
    omega = 2.0 * np.pi * np.fft.fftfreq(npad, d=dt)[1 : npad // 2]
    window = np.pi**-0.25 * np.exp(-0.5 * (np.array(scales)[:, None] * omega - OMEGA0) ** 2)
    window.flags.writeable = False
    return window


def cwt_morlet(x: np.ndarray, dt: float, grid: ScaleGrid | None = None) -> WaveletField:
    """Continuous wavelet transform with the analytic Morlet wavelet.

    The signal is demeaned, zero-padded to the next power of two strictly
    above its length (so the circular FFT convolution never wraps real data
    into itself), transformed once with the FFT, and multiplied per scale by
    the L2-normalized positive-frequency Morlet window.

    Parameters
    ----------
    x : ndarray, shape (n,)
        Real signal, finite values, n >= 8.
    dt : float
        Sampling step; positive and finite, also when ``grid`` is given.
    grid : ScaleGrid, optional
        Defaults to ``make_scale_grid(len(x), dt)``.

    Returns
    -------
    WaveletField

    Notes
    -----
    Linearity holds exactly up to rounding: the transform of ``a*x + b*y``
    equals ``a*W(x) + b*W(y)`` because demeaning, padding, and the FFT are all
    linear. A constant input transforms to the zero field.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    n = x.size
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    if grid is None:
        grid = make_scale_grid(n, dt)

    npad = 2 ** int(np.ceil(np.log2(n)))
    if npad <= n:
        npad *= 2
    xpad = np.zeros(npad)
    xpad[:n] = x - x.mean()

    xhat = np.fft.fft(xpad)
    scales = grid.scales
    # L2 norm per scale, so that coefficient magnitudes compare across scales
    norm = np.sqrt(2.0 * np.pi * scales / dt)
    window = _morlet_window(tuple(scales.tolist()), npad, dt)
    pos = slice(1, npad // 2)
    spec = np.zeros((scales.size, npad), dtype=complex)
    np.multiply(xhat[pos], window, out=spec[:, pos])
    spec[:, pos] *= norm[:, None]
    # a plain complex copy of the n kept columns, not a view of the padded buffer
    wave = ifft(spec, axis=1, overwrite_x=True)[:, :n].astype(complex)

    dist = np.minimum(np.arange(n), n - 1 - np.arange(n)).astype(float)
    coi = np.maximum(dist, _COI_EDGE_FLOOR) * dt / np.sqrt(2.0)
    return WaveletField(coeffs=wave, grid=grid, dt=dt, coi=coi)


@dataclass(frozen=True)
class CrossSpectrumField:
    """Cross-wavelet spectrum ``W_a * conj(W_b)``, float for an auto-spectrum, optionally smoothed."""

    values: np.ndarray
    smoothed: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if values.ndim != 2:
            raise ValueError("cross-spectrum must be a (scales, times) matrix")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def cross_spectrum(a: WaveletField, b: WaveletField) -> CrossSpectrumField:
    """Pointwise ``W_a * conj(W_b)`` for two fields on the same grid.

    The same field passed twice gives its auto-spectrum ``re**2 + im**2``, as floats.

    Raises
    ------
    ValueError
        If the two fields differ in grid, length, or sampling step.
    """
    if not a.grid.matches(b.grid):
        raise ValueError("wavelet fields are on different scale grids")
    if a.n_times != b.n_times or a.dt != b.dt:
        raise ValueError("wavelet fields have different time axes")
    if a is b:
        return CrossSpectrumField(values=np.square(a.coeffs.real) + np.square(a.coeffs.imag))
    return CrossSpectrumField(values=a.coeffs * np.conj(b.coeffs))


@functools.lru_cache(maxsize=4)
def _gaussian_gains(sigmas: tuple[float, ...], n: int) -> np.ndarray:
    """DCT-II gains, shape (len(sigmas), n), of reflect-mode Gaussian filters.

    Row j is the cosine transform of the kernel ``gaussian_filter1d`` samples
    for ``sigmas[j]``: ``exp(-m**2 / (2 sigma**2))`` on ``|m| <= int(4 sigma +
    0.5)``, normalized to unit sum, then folded onto the period 2n of the
    reflected signal (a kernel wider than the period wraps several times).
    Cached per grid, so the result is read-only.
    """
    period = 2 * n
    folded = np.empty((len(sigmas), period))
    for j, s in enumerate(sigmas):
        radius = int(4.0 * s + 0.5)
        m = np.arange(-radius, radius + 1)
        h = np.exp(-0.5 * (m / s) ** 2)
        folded[j] = np.bincount(m % period, weights=h / h.sum(), minlength=period)
    gains = rfft(folded, axis=1).real[:, :n]
    gains.flags.writeable = False
    return gains


def smooth(field: CrossSpectrumField, grid: ScaleGrid, dt: float) -> CrossSpectrumField:
    """Separable smoothing: Gaussian in time per scale, boxcar across scales.

    The time kernel at scale s is a Gaussian with standard deviation ``s/dt``
    samples (the wavelet's own footprint), truncated at 4 standard deviations
    and applied with reflected ends. The scale kernel is a centered boxcar
    spanning 0.6 octaves, i.e. ``round(0.6/dj)`` rows forced odd, with edge
    rows repeated.

    Reflected ends make the signal 2n-periodic and even, which the DCT-II
    diagonalizes: the time pass is one orthonormal DCT-II along time over the
    whole (scales, n) field, a per-scale gain (the cosine transform of the
    same truncated, normalized kernel ``scipy.ndimage.gaussian_filter1d``
    samples) and one inverse DCT. It costs O(S n log n) for S scales and
    matches the direct convolution to rounding. The boxcar is a direct sum
    of the ``width`` neighbouring rows, edge rows repeated, not a running sum,
    so small auto-spectra next to large ones do not pick up cancellation
    error. The gains are built once per (grid, n) and cached.

    Both kernels are nonnegative and shared across series, so smoothing a
    matrix of cross-spectra cell by cell preserves positive semidefiniteness;
    coherencies computed from the output land in the unit disc up to rounding.

    Raises
    ------
    ValueError
        If the field was already smoothed (the operator is not idempotent).
    """
    if field.smoothed:
        raise ValueError("cross-spectrum is already smoothed")
    vals = field.values
    if vals.shape[0] != grid.num_scales:
        raise ValueError("field does not match the scale grid")
    gains = _gaussian_gains(tuple((grid.scales / dt).tolist()), vals.shape[1])
    out = idct(gains * dct(vals, norm="ortho", axis=1), norm="ortho", axis=1, overwrite_x=True)
    width = int(round(SCALE_SMOOTH_OCTAVES / grid.dj))
    if width % 2 == 0:
        width += 1
    if width > 1:
        # Row r adds rows r - half .. r + half in that order, clamped to the
        # grid: the sum over an edge-padded copy, to the bit, without the copy.
        half, rows = width // 2, out.shape[0]
        box = out[np.clip(np.arange(rows) - half, 0, rows - 1)]
        for s in range(1 - half, half + 1):
            lo, hi = min(max(-s, 0), rows), max(rows - max(s, 0), 0)
            box[lo:hi] += out[lo + s : hi + s]
            box[:lo] += out[0]
            box[hi:] += out[-1]
        # numpy divides complex by real as this product with the reciprocal
        out = np.multiply(box, 1.0 / width, out=box)
    return CrossSpectrumField(values=out, smoothed=True)
