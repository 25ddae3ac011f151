"""Wavelet packet tree, pyramid transform, filters, energies."""

from dataclasses import replace

import numpy as np
import pytest

from comove import packets
from comove.packets import (
    analysis_step,
    dwt_forward,
    dwt_inverse,
    energy_fractions,
    frequency_index,
    highpass,
    lowpass,
    reconstruct_node,
    synthesis_step,
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


def test_db3_lowpass_frozen_values():
    np.testing.assert_allclose(lowpass("db3"), DB3, atol=1e-15)


def test_db3_orthonormal_filter_identities():
    h = lowpass("db3")
    assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert np.dot(h, h) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(h[:-2], h[2:]) == pytest.approx(0.0, abs=1e-14)
    assert np.dot(h[:-4], h[4:]) == pytest.approx(0.0, abs=1e-14)


def test_db3_highpass_properties():
    h = lowpass("db3")
    g = highpass(h)
    # quadrature mirror: g[k] = (-1)^k h[L-1-k]
    np.testing.assert_allclose(g, (-1.0) ** np.arange(6) * h[::-1], atol=1e-15)
    assert np.dot(g, h) == pytest.approx(0.0, abs=1e-14)
    # db3 kills polynomials up to degree 2
    k = np.arange(6.0)
    for moment in (np.ones(6), k, k**2):
        assert np.dot(g, moment) == pytest.approx(0.0, abs=1e-12)


def test_haar_filter():
    np.testing.assert_allclose(lowpass("haar"), np.full(2, np.sqrt(0.5)), atol=1e-15)


def test_unknown_wavelet():
    with pytest.raises(ValueError, match="unknown wavelet"):
        lowpass("db17")


# ---------------------------------------------------------------- one step


def test_haar_step_hand_oracle():
    h = lowpass("haar")
    g = highpass(h)
    a, d = analysis_step(np.array([1.0, 1.0, -1.0, -1.0]), h, g)
    np.testing.assert_allclose(a, [np.sqrt(2.0), -np.sqrt(2.0)], atol=1e-14)
    np.testing.assert_allclose(d, [0.0, 0.0], atol=1e-14)


def test_analysis_synthesis_roundtrip():
    rng = np.random.default_rng(0)
    h = lowpass("db3")
    g = highpass(h)
    x = rng.normal(size=40)
    a, d = analysis_step(x, h, g)
    assert a.size == d.size == 20
    back = synthesis_step(a, d, h, g)
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_analysis_step_preserves_energy():
    rng = np.random.default_rng(1)
    h = lowpass("db3")
    g = highpass(h)
    x = rng.normal(size=64)
    a, d = analysis_step(x, h, g)
    assert np.dot(a, a) + np.dot(d, d) == pytest.approx(np.dot(x, x), rel=1e-13)


def test_analysis_step_needs_even_length():
    h = lowpass("haar")
    with pytest.raises(ValueError, match="even length"):
        analysis_step(np.zeros(5), h, highpass(h))


@pytest.mark.parametrize("wavelet", ["db3", "haar"])
@pytest.mark.parametrize("n", [2, 8, 40])
def test_steps_on_a_stack_match_row_by_row(wavelet, n):
    rng = np.random.default_rng(11)
    h = lowpass(wavelet)
    g = highpass(h)
    x = rng.normal(size=(5, n))
    a, d = analysis_step(x, h, g)
    back = synthesis_step(a, d, h, g)
    for k in range(5):
        ak, dk = analysis_step(x[k], h, g)
        np.testing.assert_allclose(a[k], ak, rtol=0, atol=1e-14)
        np.testing.assert_allclose(d[k], dk, rtol=0, atol=1e-14)
        np.testing.assert_allclose(back[k], synthesis_step(ak, dk, h, g), rtol=0, atol=1e-14)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-13)


def test_synthesis_step_length_mismatch():
    h = lowpass("haar")
    with pytest.raises(ValueError, match="lengths differ"):
        synthesis_step(np.zeros(4), np.zeros(3), h, highpass(h))


# ---------------------------------------------------------------- packet tree


def test_haar_depth2_hand_oracle():
    tree = wpt_forward(np.array([1.0, 1.0, -1.0, -1.0]), 2, wavelet="haar")
    np.testing.assert_allclose(tree.nodes[(0, 0)], [0.0], atol=1e-12)
    np.testing.assert_allclose(tree.nodes[(0, 1)], [2.0], atol=1e-12)
    np.testing.assert_allclose(tree.nodes[(1, 0)], [0.0], atol=1e-12)
    np.testing.assert_allclose(tree.nodes[(1, 1)], [0.0], atol=1e-12)


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
    assert tree.padded_length == 64
    assert len(tree.nodes) == 8
    assert all(v.size == 8 for v in tree.nodes.values())


def test_wpt_pads_awkward_lengths():
    tree = wpt_forward(np.random.default_rng(4).normal(size=100), 3)
    assert tree.original_length == 100
    assert tree.padded_length == 104
    assert all(v.size == 13 for v in tree.nodes.values())


def test_wpt_parseval():
    x = np.random.default_rng(5).normal(size=64)
    tree = wpt_forward(x, 3)
    total = sum(float(np.dot(v, v)) for v in tree.nodes.values())
    assert total == pytest.approx(float(np.dot(x, x)), rel=1e-12)


def test_node_reconstructions_sum_to_signal():
    x = np.random.default_rng(6).normal(size=64)
    tree = wpt_forward(x, 3)
    total = np.zeros(64)
    for path in tree.paths():
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
    for path in tree.paths():
        # oracle: zero every other leaf, then invert the whole tree
        nodes = {p: (c if p == path else np.zeros_like(c)) for p, c in tree.nodes.items()}
        lone = replace(tree, nodes=nodes)
        np.testing.assert_allclose(
            reconstruct_node(tree, path), wpt_inverse(lone), rtol=0, atol=1e-12 * np.abs(x).max()
        )


@pytest.mark.parametrize("level", [1, 3, 5])
def test_one_filter_bank_call_per_depth(monkeypatch, level):
    calls = []

    def counted(step):
        def wrapper(*args):
            calls.append(step.__name__)
            return step(*args)

        return wrapper

    monkeypatch.setattr(packets, "analysis_step", counted(analysis_step))
    monkeypatch.setattr(packets, "synthesis_step", counted(synthesis_step))
    tree = wpt_forward(np.arange(100.0), level)
    assert calls == ["analysis_step"] * level
    calls.clear()
    wpt_inverse(tree)
    assert calls == ["synthesis_step"] * level
    calls.clear()
    reconstruct_node(tree, (1,) * level)
    assert calls == ["synthesis_step"] * level


def test_reconstruct_unknown_node():
    tree = wpt_forward(np.arange(32.0), 2)
    with pytest.raises(ValueError, match="no node"):
        reconstruct_node(tree, (0, 1, 0))


@pytest.mark.parametrize(
    "x,level,msg",
    [
        (np.zeros((8, 8)), 1, "one-dimensional"),
        (np.array([1.0, np.inf, 0, 0]), 1, "non-finite"),
        (np.arange(16.0), 0, "at least 1"),
        (np.arange(8.0), 9, "cannot be split"),
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


def test_paths_orderings():
    tree = wpt_forward(np.arange(32.0), 2)
    assert tree.paths("natural") == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert tree.paths("frequency") == [(0, 0), (0, 1), (1, 1), (1, 0)]
    with pytest.raises(ValueError, match="unknown ordering"):
        tree.paths("alphabetical")


# ---------------------------------------------------------------- energies


def test_energy_fractions_sum_to_one():
    x = np.random.default_rng(7).normal(size=128)
    fr = energy_fractions(wpt_forward(x, 4))
    assert len(fr) == 16
    assert sum(fr.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0.0 for v in fr.values())


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
        nodes={k: np.zeros_like(v) for k, v in tree.nodes.items()},
        level=tree.level,
        wavelet=tree.wavelet,
        original_length=tree.original_length,
        padded_length=tree.padded_length,
    )
    with pytest.raises(ValueError, match="zero energy"):
        energy_fractions(zero)


# ---------------------------------------------------------------- dwt


def test_dwt_shapes_finest_first():
    c = dwt_forward(np.random.default_rng(8).normal(size=100), level=3)
    assert c.padded_length == 104
    assert c.approx.size == 13
    assert [d.size for d in c.details] == [52, 26, 13]


def test_dwt_roundtrip():
    x = np.random.default_rng(9).normal(size=100)
    back = dwt_inverse(dwt_forward(x, level=3))
    assert back.size == 100
    assert np.abs(back - x).max() < 1e-12


def test_dwt_matches_packet_lowpass_spine():
    # the DWT approximation is the packet tree's repeated-lowpass node
    x = np.random.default_rng(10).normal(size=64)
    c = dwt_forward(x, level=3)
    tree = wpt_forward(x, 3)
    np.testing.assert_allclose(c.approx, tree.nodes[(0, 0, 0)], atol=1e-12)


def test_dwt_error_contracts():
    with pytest.raises(ValueError, match="at least 1"):
        dwt_forward(np.arange(16.0), level=0)
    with pytest.raises(ValueError, match="cannot be split"):
        dwt_forward(np.arange(8.0), level=9)
