"""Continuous wavelet transform with the analytic Morlet wavelet.

The transform is computed in the Fourier domain on a zero-padded copy of the
(demeaned) signal, over a dyadic scale grid. Every plane of values, a
transform or a smoothed spectrum, is one ``WaveletField`` on its grid.
``smooth(a, b)`` forms the cross-spectrum of two transforms (the
auto-spectrum when ``a is b``) and applies the separable time/scale
operator of the coherence estimators, so every consumer shares one set of
conventions (scale grid, cone of influence, smoothing spans).

Every transform is numpy's FFT. The smoother's Gaussian time pass is the
reflect-mode filter that the DCT-II diagonalizes, applied to the FFT of the
samples reordered as even times, then odd times reversed (Makhoul, IEEE
TASSP 1980), so it costs O(S n log n) for S scales and n times. Its
rounding error is a fraction of each scale row's largest value, not of each
cell's; ``coherence`` sets its degenerate floor from that fraction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .packets import _count

OMEGA0 = 6.0
DEFAULT_DJ = 1.0 / 12.0
SCALE_SMOOTH_OCTAVES = 0.6
_COI_EDGE_FLOOR = 1e-5
_TIME_PASS_ROWS = 8  # rows per time-pass block: its spectra and temporaries stay in cache
# Fourier period per unit Morlet scale at center frequency OMEGA0 = 6, about
# 1.033, so scale and Fourier period nearly coincide
_FOURIER_FACTOR = 4.0 * np.pi / (OMEGA0 + np.sqrt(2.0 + OMEGA0**2))


@dataclass(frozen=True)
class ScaleGrid:
    """The time-scale plane: ``n`` samples at step ``dt`` on the read-only
    dyadic ``scales`` ``s_j = s0 * 2**(j * dj)``, j = 0..num_scales-1.

    The one record of the plane: the transform, every spectrum, the smoother
    (``dj`` sets its scale boxcar) and the coherence field read their length,
    step, scales and COI from it. It is these five numbers, so grids are
    equal, and hash alike, when they agree; the caches key on them. A plane
    no consumer can use is refused with a ValueError naming the field.
    """

    n: int
    dt: float
    s0: float
    dj: float
    num_scales: int

    def __post_init__(self) -> None:
        for name in ("n", "num_scales"):
            _count(name, getattr(self, name))
        for name in ("dt", "s0", "dj"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @functools.cached_property
    def scales(self) -> np.ndarray:
        scales = self.s0 * 2.0 ** (np.arange(self.num_scales) * self.dj)
        scales.flags.writeable = False
        return scales

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_scales, n)``, the shape of every grid on this plane."""
        return self.num_scales, self.n

    def periods(self) -> np.ndarray:
        """Equivalent Fourier periods of the scales for the transforms' Morlet
        wavelet: ``4 pi / (OMEGA0 + sqrt(2 + OMEGA0**2)) * scales``."""
        return _FOURIER_FACTOR * self.scales

    @property
    def coi(self) -> np.ndarray:
        """Cone of influence, shape (n,): the largest trustworthy scale at each
        time, ``dt / sqrt(2)`` times the samples to the nearer end (at least 1e-5)."""
        dist = np.minimum(np.arange(self.n), self.n - 1 - np.arange(self.n)).astype(float)
        return np.maximum(dist, _COI_EDGE_FLOOR) * self.dt / np.sqrt(2.0)

    def outside_coi(self) -> np.ndarray:
        """Boolean ``shape`` mask, True where edge effects dominate."""
        return self.scales[:, None] > self.coi[None, :]


def make_scale_grid(n: int, dt: float) -> ScaleGrid:
    """The default plane of a signal of n samples at step dt: the smallest
    scale ``s0 = 2 * dt`` and ``DEFAULT_DJ`` (twelve voices per octave).

    Any other plane is built directly as ``ScaleGrid(n, dt, s0, dj, num_scales)``.

    Returns
    -------
    ScaleGrid
        With ``num_scales = floor(log2(n * dt / s0) / dj) + 1`` scales, so the
        largest scale does not exceed the record length ``n * dt``.

    Raises
    ------
    ValueError
        If n < 8, if n is not an integer or dt is not finite and positive
        (named as :class:`ScaleGrid` names them), or if the span
        ``n * dt / s0`` overflows.
    """
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    # a one-scale grid checks n and dt before the scale count is read off them
    grid = ScaleGrid(n, float(dt), float(2.0 * dt), DEFAULT_DJ, 1)
    span = grid.n * grid.dt / grid.s0  # about n / 2, at least 4, unless n * dt overflows
    octaves = float(np.log2(span)) / grid.dj
    if not np.isfinite(octaves):
        raise ValueError(f"span n * dt / s0 = {span} with dj = {grid.dj} gives no finite number of scales")
    return ScaleGrid(int(n), grid.dt, grid.s0, grid.dj, int(np.floor(octaves)) + 1)


@dataclass(frozen=True)
class WaveletField:
    """Read-only values on the time-scale plane ``grid``, one row per scale,
    of shape ``grid.shape``: complex for a transform or a smoothed
    cross-spectrum, float for a smoothed auto-spectrum."""

    values: np.ndarray
    grid: ScaleGrid

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match the grid's {self.grid.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@functools.lru_cache(maxsize=4)
def _morlet_window(grid: ScaleGrid, npad: int) -> np.ndarray:
    """Morlet window per scale on FFT columns 1 .. npad/2 - 1, the positive
    frequencies and the only ones where it is nonzero. Cached per grid, so
    the result is read-only."""
    omega = 2.0 * np.pi * np.fft.fftfreq(npad, d=grid.dt)[1 : npad // 2]
    window = np.pi**-0.25 * np.exp(-0.5 * (grid.scales[:, None] * omega - OMEGA0) ** 2)
    window.flags.writeable = False
    return window


def cwt_morlet(x: np.ndarray, dt: float, grid: ScaleGrid) -> WaveletField:
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
        Sampling step; must equal ``grid.dt``.
    grid : ScaleGrid
        The plane of the transform, ``make_scale_grid(len(x), dt)`` for the
        default one; a grid built for another length or step is refused.

    Returns
    -------
    WaveletField

    Notes
    -----
    Linearity holds exactly up to rounding: the transform of ``a*x + b*y``
    equals ``a*W(x) + b*W(y)`` because demeaning, padding, and the FFT are all
    linear. A constant input transforms to exactly the zero field: its padded
    copy stays zero, where demeaning would leave its mean's rounding error.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    n = x.size
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    if grid.n != n or grid.dt != dt:
        raise ValueError(f"grid is for {grid.n} samples at step {grid.dt}, got {n} at step {dt}")

    npad = 1 << n.bit_length()
    xpad = np.zeros(npad)
    if x.max() > x.min():  # a constant stays the zero signal, whatever its mean's rounding
        xpad[:n] = x - x.mean()

    xhat = np.fft.fft(xpad)
    # L2 norm per scale, so that coefficient magnitudes compare across scales
    norm = np.sqrt(2.0 * np.pi * grid.scales / dt)
    window = _morlet_window(grid, npad)
    pos = slice(1, npad // 2)
    spec = np.zeros((grid.num_scales, npad), dtype=complex)
    np.multiply(xhat[pos], window, out=spec[:, pos])
    spec[:, pos] *= norm[:, None]
    # a plain complex copy of the n kept columns, not a view of the padded buffer
    wave = np.fft.ifft(spec, axis=1, out=spec)[:, :n].astype(complex)
    return WaveletField(values=wave, grid=grid)


@functools.lru_cache(maxsize=4)
def _gaussian_gains(grid: ScaleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``(alpha, beta)`` of reflect-mode Gaussian filters on FFT bins
    0 .. n // 2, each of shape (num_scales, n // 2 + 1), for n = ``grid.n``.

    Row j of the DCT-II gain ``g`` is the cosine transform of the kernel
    ``gaussian_filter1d`` samples for ``sigma = scales[j] / dt``:
    ``exp(-m**2 / (2 sigma**2))`` on ``|m| <= int(4 sigma + 0.5)``, normalized to unit sum,
    then folded onto the period 2n of the reflected signal (a kernel wider
    than the period wraps several times). The filter ``idct(g * dct(v))`` acts
    on the FFT ``V`` of the reordered samples (see :func:`_time_pass`) as
    ``V'_k = alpha_k V_k + beta_k V_{n-k}``, with indices mod n and

        alpha_k = (g_k + g_{n-k}) / 2,
        beta_k = (g_k - g_{n-k}) / 2 * exp(i pi k / n),

    so ``alpha_0 = g_0`` and ``beta_0 = 0``. Bin n - k reuses ``alpha_k`` and
    ``conj(beta_k)``, so only the lower half is kept. Cached per grid, so the
    results are read-only.
    """
    n, period = grid.n, 2 * grid.n
    folded = np.empty((grid.num_scales, period))
    for j, s in enumerate((grid.scales / grid.dt).tolist()):
        radius = int(4.0 * s + 0.5)
        m = np.arange(-radius, radius + 1)
        h = np.exp(-0.5 * (m / s) ** 2)
        folded[j] = np.bincount(m % period, weights=h / h.sum(), minlength=period)
    gains = np.fft.rfft(folded, axis=1).real
    k = np.arange(n // 2 + 1)
    g, mirror = gains[:, k], gains[:, (n - k) % n]
    alpha = 0.5 * (g + mirror)
    beta = 0.5 * (g - mirror) * np.exp(1j * np.pi * k / n)
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return alpha, beta


def _time_pass(values: np.ndarray, grid: ScaleGrid, rows: slice, out: np.ndarray) -> None:
    """Gaussian time pass of :func:`smooth` on ``values[rows]``, into ``out``.

    Row j of the ``grid.shape`` field is filtered with :func:`_gaussian_gains`'
    row j. The rows are reordered as the even times, then the odd times
    reversed (Makhoul, IEEE TASSP 1980): the order in which the DCT-II of
    the samples is one FFT of length n. A float block takes a real FFT, on
    which ``V_{n-k} = conj(V_k)``. A complex one takes a complex FFT in
    place; bins 0 .. n // 2 and their mirrors n - k are copied out, mixed,
    and copied back (a bin that is its own mirror has ``beta = 0``).
    """
    n = grid.n
    alpha, beta = _gaussian_gains(grid)
    a, b = alpha[rows], beta[rows]
    half, m = (n + 1) // 2, n // 2 + 1
    w = np.empty((len(a), n), dtype=values.dtype)
    spec, mirror, term = (np.empty((len(a), m), dtype=complex) for _ in range(3))
    w[:, :half] = values[rows, 0::2]
    w[:, half:] = values[rows, 1::2][:, ::-1]
    if np.iscomplexobj(w):
        np.fft.fft(w, axis=1, out=w)
        # V_k and V_{n-k} for k = 0 .. n // 2, each contiguous
        spec[...] = w[:, :m]
        mirror[:, 0] = w[:, 0]
        mirror[:, 1:] = w[:, : n - m : -1]
        # bin k gets alpha V_k + beta V_{n-k}
        np.multiply(mirror, b, out=term)
        np.multiply(spec, a, out=w[:, :m])
        w[:, :m] += term
        # bin n - k gets alpha V_{n-k} + conj(beta) V_k
        mirror *= a
        np.conj(b, out=term)
        term *= spec
        mirror += term
        w[:, : n - m : -1] = mirror[:, 1:]
        np.fft.ifft(w, axis=1, out=w)
    else:
        np.fft.rfft(w, axis=1, out=spec)
        np.conj(spec, out=mirror)
        mirror *= b
        spec *= a
        spec += mirror
        np.fft.irfft(spec, n, axis=1, out=w)
    out[:, 0::2] = w[:, :half]
    out[:, 1::2] = w[:, half:][:, ::-1]


def smooth(a: WaveletField, b: WaveletField) -> WaveletField:
    """Smoothed cross-wavelet spectrum ``W_a * conj(W_b)`` of two fields on one grid.

    The same field passed twice gives its auto-spectrum, formed as
    ``re**2 + im**2`` in floats and smoothed as such; the result is a
    field on the inputs' grid.

    The smoothing is separable: Gaussian in time per scale, boxcar across
    scales, both kernels from the grid. The time kernel at scale s is a
    Gaussian with standard deviation ``s / grid.dt`` samples (the wavelet's
    own footprint), truncated at 4 standard deviations and applied with
    reflected ends. The scale kernel is a centered boxcar spanning 0.6
    octaves, i.e. ``round(0.6 / grid.dj)`` rows forced odd, with edge rows
    repeated.

    Reflected ends make the signal 2n-periodic and even, which the DCT-II
    diagonalizes with per-scale gains ``g`` (the cosine transform of the same
    truncated, normalized kernel ``scipy.ndimage.gaussian_filter1d``
    samples). The time pass applies ``idct(g * dct(v))`` without a DCT:
    the samples are reordered as even times, then odd times reversed, so
    that one length-n FFT ``V`` carries their DCT, and bin k becomes
    ``alpha_k V_k + beta_k V_{n-k}`` (see :func:`_gaussian_gains`) before
    the inverse FFT. It costs O(S n log n) for S scales, a real FFT for an
    auto-spectrum and a complex one otherwise. Against a direct convolution
    in extended precision its error is at most about 1e-15 of each scale
    row's largest value, and about 1.6e-16 of it on cells below 1e-5 of it;
    the error is absolute, so a value far below its row's maximum carries a
    large relative error (``coherence`` flags such cells). The boxcar is a
    direct sum of the ``width`` neighbouring rows, edge rows repeated, not a
    running sum, so small auto-spectra next to large ones do not pick up
    cancellation error. The filtered field is stored once, edge-padded, in
    place of the output: the time pass fills it a few rows at a time, and
    each block of output rows is summed from it while in cache and written
    over padded rows that no later sum reads. The weights are cached per grid.

    Both kernels are nonnegative and shared across series, so smoothing a
    matrix of cross-spectra cell by cell preserves positive semidefiniteness;
    coherencies computed from the output land in the unit disc up to rounding.

    Raises
    ------
    ValueError
        If the two grids are not equal.
    """
    if a.grid != b.grid:
        raise ValueError("wavelet fields are on different grids")
    if a is b:
        values = np.square(a.values.real) + np.square(a.values.imag)
    else:
        # conj(b) * a, in place, at every size: numpy computes a * conj(b) so
        # once it reuses a temporary of 256 KiB or more, and complex products
        # are not bitwise commutative
        values = np.conj(b.values)
        values *= a.values
    return WaveletField(values=_smooth(values, a.grid), grid=a.grid)


def _smooth(vals: np.ndarray, grid: ScaleGrid) -> np.ndarray:
    """The operator of :func:`smooth` on a float or complex ``grid.shape``
    array: a new array of its dtype."""
    width = int(round(SCALE_SMOOTH_OCTAVES / grid.dj)) | 1  # odd, so the boxcar centers on its row
    # Output row r sums rows r - half .. r + half of the time pass, clamped
    # to the grid, in that order: rows r .. r + 2 half of ``padded``, the
    # time pass with its edge rows repeated. Each block is time-passed into
    # it, and the rows whose window it completes are summed while it is in
    # cache, then written over the padded rows they start at, which no later
    # output row reads.
    half, rows = width // 2, vals.shape[0]
    padded = np.empty((rows + 2 * half, vals.shape[1]), dtype=vals.dtype)
    done = 0
    for r in range(0, rows, _TIME_PASS_ROWS):
        last = min(r + _TIME_PASS_ROWS, rows)
        _time_pass(vals, grid, slice(r, last), padded[half + r : half + last])
        if r == 0:
            padded[:half] = padded[half]
        if last == rows:
            padded[half + rows :] = padded[half + rows - 1]
        end = rows if last == rows else max(last - half, done)
        total = np.zeros((end - done, vals.shape[1]), dtype=vals.dtype)
        for d in range(width):
            total += padded[done + d : end + d]
        # numpy divides complex by real as this product with the reciprocal
        np.multiply(total, 1.0 / width, out=padded[done:end])
        done = end
    return padded[:rows]
