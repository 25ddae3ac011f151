"""Morlet transform, scale grid, cone of influence, spectra, smoothing."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import convolve1d, gaussian_filter1d

from comove import cwt
from comove.cwt import (
    ScaleGrid,
    WaveletField,
    cwt_morlet,
    make_scale_grid,
    smooth,
)

FF = 1.0330436477492537  # 4 pi / (6 + sqrt(38)), frozen


# ---------------------------------------------------------------- scale grid


def test_fourier_factor_frozen_value():
    g = make_scale_grid(1024, 1.0)
    factor = g.periods() / g.scales
    np.testing.assert_allclose(factor, FF, rtol=0, atol=1e-15)
    # every twelfth scale is a power of two, so there the quotient is the factor exactly
    assert (factor[::12] == 4.0 * np.pi / (6.0 + np.sqrt(38.0))).all()


def test_grid_1024_has_109_scales():
    g = make_scale_grid(1024, 1.0)
    assert g.num_scales == 109
    assert g.shape == (109, 1024)
    assert g.s0 == 2.0
    assert g.scales[0] == 2.0
    # 2 * 2**(108/12) = 2**(1 + 9) lands exactly on the record length
    assert g.scales[-1] == 1024.0


def test_grid_8_has_25_scales():
    g = make_scale_grid(8, 1.0)
    assert g.num_scales == 25


def test_grid_coarse_voicing():
    # one voice per octave from 2 up to the record length
    g = ScaleGrid(1024, 1.0, 2.0, 1.0, 10)
    np.testing.assert_allclose(g.scales, 2.0 ** np.arange(1, 11), rtol=1e-14)
    assert g.scales[-1] == 1024.0


def test_grid_scales_are_geometric():
    g = make_scale_grid(512, 1.0)
    ratios = g.scales[1:] / g.scales[:-1]
    np.testing.assert_allclose(ratios, 2.0 ** g.dj, rtol=1e-12)


def test_grid_respects_dt():
    g = make_scale_grid(256, 0.25)
    assert g.s0 == 0.5
    assert g.scales[-1] <= 256 * 0.25 * (1 + 1e-12)


def test_grid_periods_are_scales_times_factor():
    g = make_scale_grid(64, 1.0)
    np.testing.assert_allclose(g.periods(), g.scales * FF, rtol=1e-14)


def test_grid_matches_compares_length_and_step():
    g = make_scale_grid(64, 1.0)
    longer = make_scale_grid(65, 1.0)
    assert np.array_equal(longer.scales, g.scales)  # one more sample, the same scales
    assert g != longer and longer != g
    assert g != replace(g, dt=2.0)
    assert g == make_scale_grid(64, 1.0)


def test_equal_grids_compare_and_hash_equal_and_share_cache_entries():
    g, same = make_scale_grid(64, 1.0), make_scale_grid(64, 1.0)
    assert g is not same and g == same and hash(g) == hash(same)
    assert len({g, same}) == 1
    assert cwt._morlet_window(g, 128) is cwt._morlet_window(same, 128)
    assert cwt._gaussian_gains(g) is cwt._gaussian_gains(same)


@pytest.mark.parametrize(
    "change",
    [{"n": 65}, {"dt": 2.0}, {"dj": 0.25}, {"s0": np.nextafter(2.0, np.inf)}, {"num_scales": 72}],
    ids=["n", "dt", "dj", "scale", "num_scales"],  # "scale": every scale one ulp up
)
def test_grids_that_differ_in_one_value_compare_unequal(change):
    g = make_scale_grid(64, 1.0)
    other = replace(g, **change)
    assert g != other and other != g
    assert not g == other
    assert len({g, other}) == 2


def test_grid_scales_are_s0_times_powers_of_two_and_read_only():
    for g in (make_scale_grid(1461, 1.0), ScaleGrid(300, 0.5, 3.0, 0.25, 23),
              replace(make_scale_grid(64, 1.0), s0=1 / 3, num_scales=5)):
        assert np.array_equal(g.scales, g.s0 * 2.0 ** (np.arange(g.num_scales) * g.dj))
        assert g.scales.shape == (g.num_scales,) and g.scales is g.scales
        assert not g.scales.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.scales[0] = 1.0


def test_grid_compares_unequal_to_other_types():
    g = make_scale_grid(64, 1.0)
    assert (g == "x") is False and (g != "x") is True
    assert g != None  # noqa: E711
    assert g != (g.n, g.dt, g.s0, g.dj, g.num_scales)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(n=7, dt=1.0), "at least 8"),
        (dict(n=64, dt=0.0), "dt must be positive"),
        (dict(n=64, dt=1e308), "s0 must be positive"),  # s0 = 2 * dt overflows
        (dict(n=64.0, dt=1.0), r"^n must be a positive integer, got 64\.0$"),
        (dict(n=64, dt=-1.0), r"^dt must be positive and finite, got -1\.0$"),
        (dict(n=64, dt=np.nan), "^dt must be positive and finite"),
        # n * dt overflows while dt and s0 = 2 * dt are finite
        (dict(n=64, dt=1e307), r"^span n \* dt / s0 = inf with dj = 0\.083"),
        (dict(n=64, dt=np.inf), "^dt must be positive and finite, got inf$"),
        # a fractional length is refused as ScaleGrid refuses it, not truncated
        (dict(n=64.5, dt=1.0), r"^n must be a positive integer, got 64\.5$"),
    ],
)
def test_grid_error_contracts(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        make_scale_grid(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [("n", 0), ("n", -64), ("n", 64.0), ("dt", 0.0), ("dt", np.inf), ("dj", 0.0), ("dj", np.nan),
     ("dj", -0.25), ("num_scales", 0), ("num_scales", 12.0), ("s0", np.nan), ("s0", np.inf),
     ("s0", -2.0), ("s0", 0.0), ("num_scales", -3), ("n", True), ("num_scales", True)],
)
def test_grid_refuses_a_plane_no_consumer_can_use(field, value):
    # a hand-built plane is checked where it is built, not deep in the
    # transform, the smoother or the coherence solve; the message names the field
    with pytest.raises(ValueError, match=f"^{field} must be "):
        replace(make_scale_grid(64, 1.0), **{field: value})


# ---------------------------------------------------------------- transform


def test_cwt_is_linear():
    rng = np.random.default_rng(1)
    x = rng.normal(size=128)
    y = rng.normal(size=128)
    g = make_scale_grid(128, 1.0)
    wa = cwt_morlet(2.0 * x - 3.0 * y, 1.0, grid=g).values
    wb = 2.0 * cwt_morlet(x, 1.0, grid=g).values - 3.0 * cwt_morlet(y, 1.0, grid=g).values
    assert np.abs(wa - wb).max() < 1e-12


def test_cwt_of_constant_is_zero():
    # all but 7.5 have a mean that rounds away from c, so demeaning leaves noise
    for c, n in [(7.5, 64), (0.1, 100), (0.1, 300), (7.77, 61), (100.3, 300)]:
        x = np.full(n, c)
        assert (x - x.mean()).any() == (c != 7.5)
        assert not cwt_morlet(x, 1.0, make_scale_grid(n, 1.0)).values.any()


def test_cwt_sinusoid_peaks_at_matching_scale():
    n = 512
    t = np.arange(n)
    x = np.sin(2.0 * np.pi * t / 64.0)
    w = cwt_morlet(x, 1.0, make_scale_grid(n, 1.0))
    power_mid = np.abs(w.values[:, n // 2]) ** 2
    peak_scale = w.grid.scales[int(np.argmax(power_mid))]
    expected = 64.0 / FF
    # within one voice (a factor of 2**dj) of the analytic scale
    assert abs(np.log2(peak_scale / expected)) <= w.grid.dj + 1e-12


def test_cwt_shapes_and_grid_passthrough():
    g = make_scale_grid(100, 1.0)
    w = cwt_morlet(np.random.default_rng(0).normal(size=100), 1.0, grid=g)
    assert w.values.shape == (g.num_scales, 100)
    assert w.grid.n == 100
    assert w.grid is g
    assert np.iscomplexobj(w.values)


@pytest.mark.parametrize("n", [100, 128])
def test_cwt_coefficients_own_their_data(n):
    # a view of the padded (S, npad) transform would pin twice the memory at n = 2^k
    w = cwt_morlet(np.random.default_rng(1).normal(size=n), 1.0, make_scale_grid(n, 1.0))
    assert w.values.flags.c_contiguous and w.values.flags.owndata


def _reference_cwt(x, dt, grid):
    """Reference transform: the full-width Morlet window, zeroed off the
    positive frequencies, built on every call."""
    n = x.size
    npad = 2 ** int(np.ceil(np.log2(n)))
    if npad <= n:
        npad *= 2
    xpad = np.zeros(npad)
    xpad[:n] = x - x.mean()
    omega = 2.0 * np.pi * np.fft.fftfreq(npad, d=dt)
    window = np.pi**-0.25 * np.exp(-0.5 * (grid.scales[:, None] * omega[None, :] - 6.0) ** 2)
    window *= omega[None, :] > 0
    norm = np.sqrt(2.0 * np.pi * grid.scales / dt)
    return np.fft.ifft(np.fft.fft(xpad)[None, :] * window * norm[:, None], axis=1)[:, :n]


def test_cached_window_transform_matches_reference():
    # one set of scales, two padded lengths (128 and 256) and two sampling
    # steps: a window shared across lengths or steps would break the equality
    g = make_scale_grid(100, 1.0)
    x = np.random.default_rng(5).normal(size=128)
    for n, dt in [(100, 1.0), (128, 1.0), (100, 0.5), (100, 1.0)]:
        grid = replace(g, n=n, dt=dt)
        first = cwt_morlet(x[:n], dt, grid).values
        assert np.array_equal(first, _reference_cwt(x[:n], dt, grid))
        assert np.array_equal(cwt_morlet(x[:n], dt, grid).values, first)


def test_cached_window_is_read_only_and_keyed_by_length_and_dt():
    g = make_scale_grid(100, 1.0)
    window = cwt._morlet_window(g, 128)
    assert window.shape == (g.num_scales, 63)  # columns 1 .. npad/2 - 1
    assert cwt._morlet_window(g, 128) is window
    assert not window.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        window[0, 0] = 0.0
    assert cwt._morlet_window(g, 256).shape == (g.num_scales, 127)
    other_dt = cwt._morlet_window(replace(g, dt=0.5), 128)
    assert other_dt is not window and not np.array_equal(other_dt, window)


@pytest.mark.parametrize(
    "x,msg",
    [
        (np.zeros((4, 4)), "one-dimensional"),
        (np.zeros(7), "at least 8"),
        (np.array([1.0, np.nan, 0, 0, 0, 0, 0, 0]), "non-finite"),
    ],
)
def test_cwt_error_contracts(x, msg):
    with pytest.raises(ValueError, match=msg):
        cwt_morlet(x, 1.0, make_scale_grid(64, 1.0))


@pytest.mark.parametrize("dt", [-1.0, 0.0, np.nan, np.inf])
def test_cwt_rejects_bad_dt_with_or_without_grid(dt):
    # the grid's own check names dt; a grid's step is checked where it is built
    x = np.random.default_rng(3).normal(size=64)
    grid = make_scale_grid(64, 1.0)
    with pytest.raises(ValueError, match="^grid is for 64 samples at step 1.0"):
        cwt_morlet(x, dt, grid)
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        make_scale_grid(64, dt)


@pytest.mark.parametrize("n,dt", [(65, 1.0), (64, 2.0)], ids=["length", "step"])
def test_cwt_refuses_a_grid_for_another_length_or_step(n, dt):
    x = np.random.default_rng(3).normal(size=64)
    with pytest.raises(ValueError, match="grid is for"):
        cwt_morlet(x, 1.0, make_scale_grid(n, dt))


# ---------------------------------------------------------------- COI


def test_coi_interior_formula():
    n = 64
    w = cwt_morlet(np.random.default_rng(2).normal(size=n), 1.0, make_scale_grid(n, 1.0))
    t = np.arange(1, n - 1)
    expected = np.minimum(t, n - 1 - t) / np.sqrt(2.0)
    np.testing.assert_allclose(w.grid.coi[1:-1], expected, rtol=1e-14)


def test_coi_symmetric_and_positive():
    w = cwt_morlet(np.random.default_rng(2).normal(size=101), 0.5, make_scale_grid(101, 0.5))
    np.testing.assert_allclose(w.grid.coi, w.grid.coi[::-1], rtol=1e-14)
    assert np.all(w.grid.coi > 0)


def test_coi_scales_with_dt():
    x = np.random.default_rng(2).normal(size=64)
    c1 = cwt_morlet(x, 1.0, make_scale_grid(64, 1.0)).grid.coi
    c2 = cwt_morlet(x, 2.0, make_scale_grid(64, 2.0)).grid.coi
    np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-14)


def test_outside_coi_mask():
    w = cwt_morlet(np.random.default_rng(2).normal(size=64), 1.0, make_scale_grid(64, 1.0))
    mask = w.grid.outside_coi()
    assert mask.shape == w.values.shape
    # edges are fully outside, the very center of small scales is inside
    assert mask[:, 0].all() and mask[:, -1].all()
    assert not mask[0, 32]
    expected = w.grid.scales[:, None] > w.grid.coi[None, :]
    np.testing.assert_array_equal(mask, expected)


# ---------------------------------------------------------------- spectra


def _pair(n=128, seed=3):
    rng = np.random.default_rng(seed)
    grid = make_scale_grid(n, 1.0)
    a = cwt_morlet(rng.normal(size=n), 1.0, grid)
    b = cwt_morlet(rng.normal(size=n), 1.0, grid)
    return a, b


def test_cross_spectrum_conjugate_symmetry():
    a, b = _pair()
    ab = smooth(a, b).values
    ba = smooth(b, a).values
    assert np.abs(ab - ba.conj()).max() < 1e-14


@pytest.mark.parametrize("n", [128, 1461])
def test_cross_spectrum_takes_one_operand_order_at_every_size(n):
    # numpy computes a * conj(b) as conj(b) * a once it reuses the temporary
    # conj(b), of 256 KiB or more, in place; complex products are not bitwise
    # commutative, so smooth takes conj(b) * a on grids of either side
    a, b = _pair(n)
    assert (a.values.nbytes < 256 * 1024) == (n == 128)
    assert np.array_equal(smooth(a, b).values, cwt._smooth(np.multiply(np.conj(b.values), a.values), a.grid))


def test_auto_spectrum_is_nonnegative_real():
    a, _ = _pair()
    aa = smooth(a, a).values
    assert aa.dtype == float  # re**2 + im**2, not a complex product
    assert np.array_equal(aa, cwt._smooth(np.square(a.values.real) + np.square(a.values.imag), a.grid))
    scale = np.abs(aa.real).max()
    product = cwt._smooth(a.values * np.conj(a.values), a.grid)
    assert np.abs(aa - product.real).max() <= 1e-15 * scale
    assert np.abs(product.imag).max() <= 1e-14 * scale
    assert aa.real.min() >= 0.0


def test_cross_spectrum_grid_mismatch():
    a, _ = _pair(n=128)
    c, _ = _pair(n=150)
    with pytest.raises(ValueError, match="different grids"):
        smooth(a, c)


@pytest.mark.parametrize("n,dt", [(150, 1.0), (128, 2.0)], ids=["length", "step"])
def test_cross_spectrum_time_axis_mismatch(n, dt):
    # each field on its own grid, both with one set of scales, so only the
    # time axes tell the fields apart
    rng = np.random.default_rng(4)
    grid = make_scale_grid(128, 1.0)
    a = cwt_morlet(rng.normal(size=128), 1.0, grid)
    b = cwt_morlet(rng.normal(size=n), dt, replace(grid, n=n, dt=dt))
    with pytest.raises(ValueError, match="^wavelet fields are on different grids$"):
        smooth(a, b)


def test_phase_of_lagged_sinusoid():
    # y lags x by a quarter period, so the cross spectrum W_x conj(W_y)
    # carries phase +pi/2 at the sinusoid's scale
    n = 512
    t = np.arange(n)
    x = np.sin(2.0 * np.pi * t / 64.0)
    y = np.sin(2.0 * np.pi * (t - 16) / 64.0)
    grid = make_scale_grid(n, 1.0)
    wx = cwt_morlet(x, 1.0, grid)
    wy = cwt_morlet(y, 1.0, grid)
    cs = smooth(wx, wy)
    j = int(np.argmin(np.abs(wx.grid.scales - 64.0 / FF)))
    phase = np.angle(cs.values[j, n // 2])
    assert phase == pytest.approx(np.pi / 2.0, abs=0.05)


# ---------------------------------------------------------------- smoothing


def test_smooth_preserves_constant_field():
    g = make_scale_grid(64, 1.0)
    out = cwt._smooth(np.ones((g.num_scales, 64), dtype=complex), g)
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_smooth_rejects_mismatched_grid():
    g = make_scale_grid(64, 1.0)
    other = make_scale_grid(128, 1.0)
    with pytest.raises(ValueError, match="does not match the grid"):
        WaveletField(values=np.ones((g.num_scales, 64), dtype=complex), grid=other)


def test_smooth_rejects_a_field_of_another_length():
    # 64 and 65 samples give the same scales, so only the column count differs
    g = make_scale_grid(64, 1.0)
    with pytest.raises(ValueError, match="does not match the grid"):
        WaveletField(values=np.ones((g.num_scales, 65), dtype=complex), grid=g)


# one scale row short, and flat: the other-grid and other-length cases are above
@pytest.mark.parametrize("shape", [(60, 64), (61 * 64,)], ids=str)
def test_cross_spectrum_field_refuses_values_of_another_shape(shape):
    g = make_scale_grid(64, 1.0)
    assert g.shape == (61, 64)
    with pytest.raises(ValueError, match=r"does not match the grid's \(61, 64\)"):
        WaveletField(values=np.ones(shape), grid=g)


def test_smooth_returns_a_field_on_its_inputs_grid():
    a, b = _pair(seed=3)
    for out, dtype in ((smooth(a, b), complex), (smooth(a, a), float)):
        assert isinstance(out, WaveletField) and out.values.dtype == dtype
        assert out.grid is a.grid and out.values.shape == a.grid.shape
        assert not out.values.flags.writeable


def test_smoothed_coherence_stays_in_unit_disc():
    # shared smoothing weights keep |S12|^2 <= S11 * S22 cell by cell
    a, b = _pair(seed=9)
    s11 = smooth(a, a).values.real
    s22 = smooth(b, b).values.real
    s12 = smooth(a, b).values
    coh = np.abs(s12) ** 2 / (s11 * s22)
    assert coh.max() <= 1.0 + 1e-9
    assert coh.min() >= 0.0


def _smooth_by_rows(values, grid):
    """Reference smoother: a direct Gaussian convolution per scale row, then
    a direct-sum boxcar over 0.6 octaves of scales (the FFT time pass's oracle)."""
    out = np.empty(values.shape, dtype=complex)
    for j, s in enumerate(grid.scales / grid.dt):
        out[j] = gaussian_filter1d(values[j].real, s, mode="reflect") + 1j * (
            gaussian_filter1d(values[j].imag, s, mode="reflect")
        )
    width = int(round(0.6 / grid.dj)) | 1
    box = np.full(width, 1.0 / width)
    return convolve1d(out.real, box, axis=0, mode="nearest") + 1j * (
        convolve1d(out.imag, box, axis=0, mode="nearest")
    )


# odd and tiny lengths too: the time pass splits even and odd samples
@pytest.mark.parametrize("n", [9, 64, 1000, 1461, 4096])
def test_smooth_matches_direct_convolution(n):
    g = make_scale_grid(n, 1.0)
    # the widest kernels wrap the 2n-periodic reflected signal more than once
    assert 4.0 * g.scales[-1] > 2 * n
    rng = np.random.default_rng(n)
    values = rng.normal(size=(g.num_scales, n)) + 1j * rng.normal(size=(g.num_scales, n))
    values *= np.exp(rng.normal(scale=3.0, size=(g.num_scales, 1)))
    out = cwt._smooth(values, g)
    ref = _smooth_by_rows(values, g)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(values).max()


@pytest.mark.parametrize("n", [9, 64, 1000, 1461, 4096])
def test_smooth_keeps_a_float_field_float(n):
    g = make_scale_grid(n, 1.0)
    rng = np.random.default_rng([n, 1])
    values = rng.normal(size=(g.num_scales, n)) * np.exp(rng.normal(scale=3.0, size=(g.num_scales, 1)))
    out = cwt._smooth(values, g)
    assert out.dtype == float
    assert np.abs(out - _smooth_by_rows(values, g)).max() <= 1e-12 * np.abs(values).max()
    as_complex = cwt._smooth(values + 0j, g).real
    assert np.abs(out - as_complex).max() <= 1e-15 * np.abs(as_complex).max()


@pytest.mark.parametrize("n", [9, 1461])
def test_smooth_is_linear_over_real_and_imaginary_parts(n):
    # the complex pass mixes FFT bins k and n - k; the float pass does not
    g = make_scale_grid(n, 1.0)
    rng = np.random.default_rng([n, 2])
    a, b = (rng.normal(size=(g.num_scales, n)) * np.exp(rng.normal(scale=3.0, size=(g.num_scales, 1)))
            for _ in range(2))
    whole = cwt._smooth(a + 1j * b, g)
    re, im = (cwt._smooth(v, g) for v in (a, b))
    row_max = np.abs(whole).max(axis=1, keepdims=True)
    assert np.all(np.abs(whole - (re + 1j * im)) <= 1e-14 * row_max)


def test_time_pass_weights_are_cached_read_only():
    g = make_scale_grid(64, 1.0)
    alpha, beta = cwt._gaussian_gains(g)
    assert alpha.shape == beta.shape == (g.num_scales, 33)
    assert alpha.dtype == float and beta.dtype == complex
    assert not alpha.flags.writeable and not beta.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        alpha[0, 0] = 0.0
    again = cwt._gaussian_gains(g)
    assert again[0] is alpha and again[1] is beta
    assert cwt._gaussian_gains(make_scale_grid(65, 1.0))[0] is not alpha
    assert cwt._gaussian_gains(replace(g, num_scales=g.num_scales - 1))[0] is not alpha
    # bin 0 is its own mirror: alpha_0 = g_0 = 1 for a unit-sum kernel
    assert np.allclose(alpha[:, 0], 1.0, rtol=0, atol=1e-15) and np.all(beta[:, 0] == 0.0)


def _padded_boxcar_smooth(values, grid):
    """Reference: smooth's time pass over the whole field at once, then the
    scale boxcar summed over an edge-padded copy of the rows and scaled by
    1 / width (numpy divides a complex array by a real as that product)."""
    out = np.empty_like(values)
    cwt._time_pass(values, grid, slice(None), out)
    width = int(round(0.6 / grid.dj)) | 1
    half, rows = width // 2, out.shape[0]
    padded = np.pad(out, ((half, half), (0, 0)), mode="edge")
    total = padded[:rows].copy()
    for k in range(1, width):
        total += padded[k : k + rows]
    return total * (1.0 / width)


# grids of 85 rows (width 7), 21 rows (width 3), 4 rows (width 13, wider
# than the grid), 251 rows (width 31, wider than a time-pass block) and, on
# an odd n, 89 rows (width 13, also wider than a block)
@pytest.mark.parametrize(
    "n,s0,dj",
    [(256, None, 1.0 / 12.0), (64, None, 0.25), (8, 7.0, 0.05), (64, None, 0.02), (65, 3.0, 0.05)],
)
def test_boxcar_matches_edge_padded_sum(n, s0, dj):
    # the blocked gather against one whole-field time pass, float and complex;
    # the grid's largest scale is the last within the record, s0 = 2 by default
    s0 = 2.0 if s0 is None else s0
    g = ScaleGrid(n, 1.0, s0, dj, int(np.log2(n / s0) / dj) + 1)
    rng = np.random.default_rng([n, 7])
    re, im = rng.normal(size=(2, g.num_scales, n))
    half = (int(round(0.6 / dj)) | 1) // 2
    for values in (re, re + 1j * im):
        before = values.copy()
        out = cwt._smooth(values, g)
        assert values.tobytes() == before.tobytes()  # the input is left as it was
        ref = _padded_boxcar_smooth(values, g)
        assert out.dtype == values.dtype
        assert np.array_equal(out[:half], ref[:half]) and np.array_equal(out[-half:], ref[-half:])
        assert np.array_equal(out, ref)


def test_smooth_reduces_time_variation():
    rng = np.random.default_rng(4)
    a = cwt_morlet(rng.normal(size=256), 1.0, make_scale_grid(256, 1.0))
    raw = np.square(a.values.real) + np.square(a.values.imag)
    sm = smooth(a, a)
    # pick a mid scale: smoothing must shrink the local wiggle
    j = a.grid.num_scales // 2
    assert np.std(np.diff(sm.values[j])) < np.std(np.diff(raw[j]))
