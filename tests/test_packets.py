"""Wavelet packet tree, pyramid transform, filters, energies."""

import re
from dataclasses import replace

import numpy as np
import pytest

from comove import packets
from comove.packets import (
    _analysis_step,
    _dwt,
    _filter_bank,
    _idwt,
    _paths,
    energy_fractions,
    frequency_index,
    reconstruct_node,
    wpt_forward,
    wpt_inverse,
)

# Closed-form db3 lowpass values, frozen to full double precision. The six
# entries are (1 + z1)(1 + z2)... evaluated exactly; they were derived
# symbolically and rounded once, here.
DB3 = np.array(
    [
        0.3326705529500826160,
        0.8068915093110925765,
        0.4598775021184915701,
        -0.1350110200102545887,
        -0.0854412738820266617,
        0.0352262918857095366,
    ]
)


# ---------------------------------------------------------------- filters


def synthesis_step(a, d, h, g):
    """Inverse of :func:`_analysis_step`, an oracle for the banks' transpose.

    x[2j + r] = sum_q h[r + 2q] a[(j - q) mod N/2] + g[r + 2q] d[(j - q) mod N/2]
    along the last axis; leading axes are a batch of independent signals.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape != d.shape:
        raise ValueError("approximation and detail lengths differ")
    half = a.shape[-1]
    idx = (np.arange(half)[:, None] - np.arange(h.size // 2)) % half  # row j: the a and d windows of pair j
    windows = np.concatenate([a, d], axis=-1).take(np.concatenate([idx, idx + half], axis=1), axis=-1)
    phases = np.concatenate([h, g]).reshape(-1, 2)  # column r: taps r::2 of h, then of g
    return (windows @ phases).reshape(*a.shape[:-1], 2 * half)


def test_db3_lowpass_frozen_values():
    np.testing.assert_allclose(_filter_bank("db3")[0], DB3, atol=1e-15)


def test_db3_orthonormal_filter_identities():
    h = _filter_bank("db3")[0]
    assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert np.dot(h, h) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(h[:-2], h[2:]) == pytest.approx(0.0, abs=1e-14)
    assert np.dot(h[:-4], h[4:]) == pytest.approx(0.0, abs=1e-14)


def test_db3_highpass_properties():
    h, g = _filter_bank("db3")
    # quadrature mirror: g[k] = (-1)^k h[L-1-k]
    np.testing.assert_allclose(g, (-1.0) ** np.arange(6) * h[::-1], atol=1e-15)
    assert np.dot(g, h) == pytest.approx(0.0, abs=1e-14)
    # db3 kills polynomials up to degree 2
    k = np.arange(6.0)
    for moment in (np.ones(6), k, k**2):
        assert np.dot(g, moment) == pytest.approx(0.0, abs=1e-12)


def test_haar_filter():
    np.testing.assert_allclose(_filter_bank("haar")[0], np.full(2, np.sqrt(0.5)), atol=1e-15)


def test_unknown_wavelet():
    with pytest.raises(ValueError, match=r"^unknown wavelet 'db17'; have \['db3', 'haar'\]$"):
        _filter_bank("db17")


# ---------------------------------------------------------------- one step


def test_haar_step_hand_oracle():
    h, g = _filter_bank("haar")
    a, d = _analysis_step(np.array([1.0, 1.0, -1.0, -1.0]), h, g)
    np.testing.assert_allclose(a, [np.sqrt(2.0), -np.sqrt(2.0)], atol=1e-14)
    np.testing.assert_allclose(d, [0.0, 0.0], atol=1e-14)


def test_analysis_synthesis_roundtrip():
    rng = np.random.default_rng(0)
    h, g = _filter_bank("db3")
    x = rng.normal(size=40)
    a, d = _analysis_step(x, h, g)
    assert a.size == d.size == 20
    back = synthesis_step(a, d, h, g)
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_analysis_step_preserves_energy():
    rng = np.random.default_rng(1)
    h, g = _filter_bank("db3")
    x = rng.normal(size=64)
    a, d = _analysis_step(x, h, g)
    assert np.dot(a, a) + np.dot(d, d) == pytest.approx(np.dot(x, x), rel=1e-13)


def test_analysis_step_needs_even_length():
    with pytest.raises(ValueError, match="even length"):
        _analysis_step(np.zeros(5), *_filter_bank("haar"))


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
@pytest.mark.parametrize("n", [2, 8, 40])
def test_steps_on_a_stack_match_row_by_row(wavelet, n):
    rng = np.random.default_rng(11)
    h, g = _filter_bank(wavelet)
    x = rng.normal(size=(5, n))
    a, d = _analysis_step(x, h, g)
    back = synthesis_step(a, d, h, g)
    for k in range(5):
        ak, dk = _analysis_step(x[k], h, g)
        assert np.array_equal(a[k], ak) and np.array_equal(d[k], dk)
        np.testing.assert_allclose(back[k], synthesis_step(ak, dk, h, g), rtol=0, atol=1e-14)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-13)


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
def test_steps_at_interleaved_lengths_match_the_index_formula(wavelet):
    # alternate two lengths, so each call must build its own gather
    rng = np.random.default_rng(12)
    h, g = _filter_bank(wavelet)
    for n in (40, 12, 40, 12):
        x = rng.normal(size=(3, n))
        idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
        a, d = _analysis_step(x, h, g)
        windows = np.take(x, idx, axis=-1)
        assert np.array_equal(a, windows @ h) and np.array_equal(d, windows @ g)
        half = n // 2
        idx = (np.arange(half)[:, None] - np.arange(h.size // 2)[None, :]) % half
        windows = np.concatenate([a[..., idx], d[..., idx]], axis=-1)
        phases = np.concatenate([h.reshape(-1, 2), g.reshape(-1, 2)])
        want = (windows @ phases).reshape(3, n)
        assert np.array_equal(synthesis_step(a, d, h, g), want)


def test_cached_gather_plans_are_read_only():
    # analysis gather, bank and order, synthesis gather and bank, for every node set
    for nodes in (packets._paths(4), packets._spine(2), ((0, 1, 1),)):
        plan = packets._plan(48, "db3", nodes)
        assert packets._plan(48, "db3", nodes) is plan
        for a in plan:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
def test_filter_bank_is_built_once_and_read_only(wavelet):
    h, g = _filter_bank(wavelet)
    assert _filter_bank(wavelet) is _filter_bank(wavelet)
    assert np.array_equal(g, (-1.0) ** np.arange(h.size) * h[::-1])
    for f in (h, g):
        with pytest.raises(ValueError, match="read-only"):
            f[0] = 0.0
    with pytest.raises(ValueError, match="unknown wavelet"):
        _filter_bank("db4")


def test_synthesis_step_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        synthesis_step(np.zeros(4), np.zeros(3), *_filter_bank("haar"))


# ---------------------------------------------------------------- packet tree


def test_haar_depth2_hand_oracle():
    tree = wpt_forward(np.array([1.0, 1.0, -1.0, -1.0]), 2, wavelet="haar")
    # rows in natural order: (0, 0), (0, 1), (1, 0), (1, 1)
    np.testing.assert_allclose(tree.leaves, [[0.0], [2.0], [0.0], [0.0]], atol=1e-12)


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
@pytest.mark.parametrize("n", [64, 100])
def test_wpt_perfect_reconstruction(wavelet, n):
    rng = np.random.default_rng(2)
    x = rng.normal(size=n)
    tree = wpt_forward(x, 3, wavelet=wavelet)
    back = wpt_inverse(tree)
    assert back.size == n
    assert np.abs(back - x).max() < 1e-10


def test_wpt_tree_shape():
    tree = wpt_forward(np.random.default_rng(3).normal(size=64), 3)
    assert tree.level == 3
    assert tree.original_length == 64
    assert tree.leaves.shape == (8, 8)


def test_wpt_pads_awkward_lengths():
    tree = wpt_forward(np.random.default_rng(4).normal(size=100), 3)
    assert tree.original_length == 100
    assert tree.leaves.shape == (8, 13)  # extended to 104 samples


def test_wpt_parseval():
    x = np.random.default_rng(5).normal(size=64)
    tree = wpt_forward(x, 3)
    total = sum(float(np.dot(v, v)) for v in tree.leaves)
    assert total == pytest.approx(float(np.dot(x, x)), rel=1e-12)


def test_node_reconstructions_sum_to_signal():
    x = np.random.default_rng(6).normal(size=64)
    tree = wpt_forward(x, 3)
    total = np.zeros(64)
    for path in _paths(3):
        part = reconstruct_node(tree, path)
        assert part.size == 64
        total += part
    assert np.abs(total - x).max() < 1e-10


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [64, 100])
def test_reconstruct_node_matches_zeroed_tree_inverse(wavelet, level, n):
    x = np.cumsum(np.random.default_rng(12).normal(size=n))
    tree = wpt_forward(x, level, wavelet=wavelet)
    for i, path in enumerate(_paths(level)):
        # oracle: zero every other leaf, then invert the whole tree
        leaves = np.zeros_like(tree.leaves)
        leaves[i] = tree.leaves[i]
        lone = replace(tree, leaves=leaves)
        np.testing.assert_allclose(
            reconstruct_node(tree, path), wpt_inverse(lone), rtol=0, atol=1e-12 * np.abs(x).max()
        )


# bank against per-depth cascade, in units of eps * max|x|: a bank entry sums
# up to 76 products where the cascade takes four sums of six; seen up to 6.8
CASCADE_TOL = 16 * np.finfo(float).eps


def _cascade(x, level, wavelet):
    """The packet tree and the DWT of the extended x, a depth at a time with
    _analysis_step: (natural-order leaf rows, DWT approximation, details)."""
    h, g = _filter_bank(wavelet)
    xp = np.concatenate([x, x[: -x.size % 2**level]])
    rows, a, details = xp[None], xp, []
    for _ in range(level):
        lo, hi = _analysis_step(rows, h, g)
        rows = np.stack([lo, hi], axis=1).reshape(-1, lo.shape[-1])
        a, d = _analysis_step(a, h, g)
        details.append(d)
    return rows, a, details


def _cascade_inverse(rows, wavelet):
    h, g = _filter_bank(wavelet)
    while len(rows) > 1:
        rows = synthesis_step(rows[0::2], rows[1::2], h, g)
    return rows[0]


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
@pytest.mark.parametrize("level", range(1, 9))
def test_banks_match_the_per_depth_cascade(wavelet, level):
    # every residue of n mod 2**level, from one coefficient per leaf up, then
    # the benchmark's and a long length; past depth 4 two banks compose
    h, g = _filter_bank(wavelet)
    for n in [*range(2**level, 2**(level + 1)), 1461, 4096]:
        x = np.random.default_rng([level, n]).standard_normal(n)
        tol = CASCADE_TOL * np.abs(x).max()
        rows, approx, details = _cascade(x, level, wavelet)
        tree = wpt_forward(x, level, wavelet)
        assert np.abs(tree.leaves - rows).max() <= tol, n
        assert np.abs(wpt_inverse(tree) - _cascade_inverse(rows, wavelet)[:n]).max() <= tol, n
        for path in {(0,) * level, (1,) * level, _paths(level)[n % 2**level]}:
            lone = np.zeros_like(rows)
            i = np.ravel_multi_index(path, (2,) * level)
            lone[i] = tree.leaves[i]
            want = _cascade_inverse(lone, wavelet)[:n]
            assert np.abs(reconstruct_node(tree, path) - want).max() <= tol, (n, path)
        c = _dwt(x, level, wavelet)  # Mallat order: the approximation, then the details coarsest first
        assert np.abs(c - np.concatenate([approx, *details[::-1]])).max() <= tol, n
        a = approx
        for d in reversed(details):
            a = synthesis_step(a, d, h, g)
        assert np.abs(_idwt(c, level, wavelet, n) - a[:n]).max() <= tol, n


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
@pytest.mark.parametrize("n,depth", [(16, 4), (40, 3), (1472, 4), (96, 1)])
def test_bank_products_on_a_stack_match_row_by_row(wavelet, n, depth):
    # batching many series into one call relies on this, bit for bit
    x = np.random.default_rng(n).standard_normal((3, n))
    for nodes in (packets._paths(depth), packets._spine(depth), ((1,) * depth,)):
        plan = packets._plan(n, wavelet, nodes)
        c = x[:, : plan[1].shape[1] * n >> depth]  # as many coefficients as the nodes hold
        stacked, back = packets._analyze(x, plan), packets._synthesize(c, plan)
        for k in range(3):
            assert np.array_equal(stacked[k], packets._analyze(x[k], plan)), nodes
            assert np.array_equal(back[k], packets._synthesize(c[k], plan)), nodes


@pytest.mark.parametrize("level,stages", [(1, 1), (3, 1), (4, 1), (5, 2)])
def test_one_bank_product_per_stage_of_at_most_four_levels(monkeypatch, level, stages):
    x = np.arange(100.0)
    reconstruct_node(wpt_forward(x, level), (0,) * level), _dwt(x, level, "db3")  # builds the plans
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)

        return wrapper

    for f in (packets._analyze, packets._synthesize, _analysis_step):
        monkeypatch.setattr(packets, f.__name__, counted(f))
    built = packets._plan.cache_info().misses
    tree, coeffs = wpt_forward(x, level), _dwt(x, level, "db3")
    assert calls == ["_analyze"] * 2 * stages
    calls.clear()
    wpt_inverse(tree), reconstruct_node(tree, (0,) * level), _idwt(coeffs, level, "db3", x.size)
    assert calls == ["_synthesize"] * 3 * stages
    assert packets._plan.cache_info().misses == built
    assert all(hi - lo <= 4 for lo, hi in packets._stages(level))


def test_reconstruct_unknown_node():
    tree = wpt_forward(np.arange(32.0), 2)
    for path in ((0, 1, 0), (0,), (0, 2)):
        with pytest.raises(ValueError, match=rf"^no node {re.escape(str(path))} at level 2$"):
            reconstruct_node(tree, path)


@pytest.mark.parametrize(
    "x,level,msg",
    [
        (np.zeros((8, 8)), 1, "one-dimensional"),
        (np.array([1.0, np.inf, 0, 0]), 1, "non-finite"),
        (np.arange(16.0), 0, "^level must be a positive integer, got 0$"),
        (np.arange(8.0), 9, "cannot be split"),
        # refused from the length's bit length, before 2**level is built
        (np.arange(300.0), 20000, "^300 samples cannot be split 20000 times$"),
        (np.arange(300.0), 10**8, "^300 samples cannot be split 100000000 times$"),
    ],
)
def test_wpt_error_contracts(x, level, msg):
    with pytest.raises(ValueError, match=msg):
        wpt_forward(x, level)


# ---------------------------------------------------------------- orderings


def test_frequency_index_depth3_gray_mapping():
    got = {
        tuple(int(b) for b in f"{i:03b}"): frequency_index(
            tuple(int(b) for b in f"{i:03b}")
        )
        for i in range(8)
    }
    want = {
        (0, 0, 0): 0,
        (0, 0, 1): 1,
        (0, 1, 0): 3,
        (0, 1, 1): 2,
        (1, 0, 0): 7,
        (1, 0, 1): 6,
        (1, 1, 0): 4,
        (1, 1, 1): 5,
    }
    assert got == want


def test_frequency_index_is_a_bijection():
    for depth in (1, 2, 3, 4, 5):
        paths = [
            tuple(int(b) for b in format(i, f"0{depth}b")) for i in range(2**depth)
        ]
        indices = sorted(frequency_index(p) for p in paths)
        assert indices == list(range(2**depth))


def test_frequency_index_refuses_a_path_that_names_no_node():
    # reconstruct_node refuses these paths as naming no node; a band for them
    # would be a position no leaf holds
    for path in ((2,), (0, 3), (1, -1)):
        with pytest.raises(ValueError, match=rf"^no node {re.escape(str(path))}: a path's digits are 0 or 1$"):
            frequency_index(path)


def test_paths_orderings():
    # the fractions come keyed in natural order; frequency_index sorts them by band
    natural = list(energy_fractions(wpt_forward(np.arange(32.0), 2)))
    assert natural == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sorted(natural, key=frequency_index) == [(0, 0), (0, 1), (1, 1), (1, 0)]


# ---------------------------------------------------------------- energies


def test_energy_fractions_sum_to_one():
    x = np.random.default_rng(7).normal(size=128)
    fr = energy_fractions(wpt_forward(x, 4))
    assert len(fr) == 16
    assert sum(fr.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0.0 for v in fr.values())


@pytest.mark.parametrize("ordering", ["natural", "frequency"])
def test_energy_fractions_follow_the_ordering_and_per_leaf_sums(ordering):
    # keyed in the stack's natural order, and read in band order by sorting
    # the paths with frequency_index, as the CLI and the demo read them
    tree = wpt_forward(np.random.default_rng(8).normal(size=1461), 4)
    fr = energy_fractions(tree)
    assert list(fr) == list(_paths(4))
    paths = sorted(fr, key=frequency_index if ordering == "frequency" else None)
    rows = dict(zip(_paths(4), tree.leaves))  # natural order, as the stack holds them
    energies = [float(np.sum(rows[p] ** 2)) for p in paths]
    np.testing.assert_allclose([fr[p] for p in paths], np.array(energies) / sum(energies), rtol=1e-15)


@pytest.mark.parametrize("seed", [80, 250, 363])
def test_energy_fractions_agree_across_orderings(seed):
    # every leaf's energy is divided by one total, summed in natural order, so
    # a reader that lists the leaves in band order reads the same bits (on
    # these walks a total summed in frequency order moved all 16 fractions' last bit)
    tree = wpt_forward(np.random.default_rng(seed).standard_normal(1461).cumsum(), 4)
    energies = (tree.leaves**2).sum(axis=1).tolist()
    total = sum(energies)
    fr = energy_fractions(tree)
    assert fr == {p: e / total for p, e in zip(_paths(4), energies)}
    in_frequency_order = sorted(zip(_paths(4), energies), key=lambda pe: frequency_index(pe[0]))
    assert sum(e for _, e in in_frequency_order) != total  # the order these seeds pin


def test_constant_signal_energy_in_trend_node():
    fr = energy_fractions(wpt_forward(np.full(64, 5.0), 4))
    assert fr[(0, 0, 0, 0)] == 1.0
    others = [v for k, v in fr.items() if k != (0, 0, 0, 0)]
    assert max(others) < 1e-30


def test_alternating_signal_lands_in_top_frequency_band():
    # a Nyquist-rate alternation folds down the highpass branch: its natural
    # path is (1, 0, 0), and the Gray-code map says that IS the top band
    x = np.cos(np.pi * np.arange(64))
    fr = energy_fractions(wpt_forward(x, 3, wavelet="haar"))
    assert fr[(1, 0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert frequency_index((1, 0, 0)) == 7


def test_energy_fractions_zero_signal():
    tree = wpt_forward(np.full(32, 1.0), 2)
    zero = type(tree)(
        leaves=np.zeros_like(tree.leaves),
        level=tree.level,
        wavelet=tree.wavelet,
        original_length=tree.original_length,
    )
    with pytest.raises(ValueError, match="zero energy"):
        energy_fractions(zero)


# ---------------------------------------------------------------- dwt


def test_dwt_shapes_finest_first():
    # one padded array: the approximation c[:13], then detail levels 2, 1 and 0
    # at c[13:26], c[26:52] and c[52:104], so level j is c[P >> (j + 1) : P >> j]
    x = np.random.default_rng(8).normal(size=100)
    c = _dwt(x, 3, "db3")
    assert c.shape == (104,)
    approx = c[:13]
    for j in range(3):
        approx = synthesis_step(approx, c[104 >> (3 - j) : 104 >> (2 - j)], *_filter_bank("db3"))
    assert np.abs(approx[:100] - x).max() < 1e-12


def test_dwt_roundtrip():
    x = np.random.default_rng(9).normal(size=100)
    back = _idwt(_dwt(x, 3, "db3"), 3, "db3", 100)
    assert back.size == 100
    assert np.abs(back - x).max() < 1e-12


def test_dwt_matches_packet_lowpass_spine():
    # the DWT approximation is the packet tree's repeated-lowpass node, bit
    # for bit: both banks hold the same lowpass column, and past depth 4 a
    # row of the tree's stacked second stage is computed as on its own
    for n, level in ((64, 3), (1461, 3), (1461, 8), (4096, 8)):
        x = np.random.default_rng(10).normal(size=n)
        c = _dwt(x, level, "db3")
        tree = wpt_forward(x, level)
        assert np.array_equal(c[: c.size >> level], tree.leaves[0]), n


def test_malformed_coefficients_are_refused():
    x = np.random.default_rng(13).normal(size=100)
    # a tree is refused once, when built from a stack that is not 2**level equal rows
    tree = wpt_forward(x, 3)
    for leaves in (tree.leaves[:-1], tree.leaves[0], tree.leaves[:, :0], np.stack([tree.leaves] * 2)):
        with pytest.raises(ValueError, match=r"^a level-3 tree holds 2\*\*3 leaves of equal length, "
                                             rf"got a stack of shape \({', '.join(map(str, leaves.shape))},?\)$"):
            replace(tree, leaves=leaves)
    with pytest.raises(ValueError, match=r"^a level-100000000 tree holds 2\*\*100000000 leaves"):
        replace(tree, level=10**8)  # refused without building 2**level
    with pytest.raises(ValueError, match="read-only"):
        tree.leaves[0, 0] = 1.0


def test_dwt_error_contracts():
    with pytest.raises(ValueError, match="^level must be a positive integer, got 0$"):
        _dwt(np.arange(16.0), 0, "db3")
    with pytest.raises(ValueError, match="cannot be split"):
        _dwt(np.arange(8.0), 9, "db3")
