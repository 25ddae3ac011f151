"""Wavelet packet and plain wavelet transforms with periodic extension.

Orthonormal filter banks (db3 by default, Haar for cross-checks) from one
private table of lowpass taps, with one decimating analysis step. Each
transform runs one cached polyphase bank, built from that step, per stage of
up to 4 levels, and its inverse the bank's transpose: one gather and one
product give every node of a stage, a single leaf or the DWT's approximation
and detail phases. Leaves are keyed by binary paths in natural (Paley) order:
node {0,...,0} holds the lowest band, the trend. Each highpass branch mirrors
the spectrum (:func:`frequency_index`), so the all-highpass node {1,...,1} is
not the top band: at depth 4 it is band 10 of 16, and the top band is
{1,0,0,0}, band 15. Lengths not divisible by 2**level are extended
periodically and trimmed back.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# Orthonormal lowpass taps (sum = sqrt(2), unit energy) of each wavelet.
_LOWPASS = {
    "db3": (
        0.3326705529500826,
        0.8068915093110928,
        0.4598775021184915,
        -0.1350110200102546,
        -0.0854412738820267,
        0.0352262918857095,
    ),
    "haar": (np.sqrt(0.5), np.sqrt(0.5)),
}


@functools.lru_cache(maxsize=None)
def _filter_bank(wavelet: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lowpass, highpass)`` pair of a wavelet, built once and read-only;
    the highpass is the quadrature mirror g[k] = (-1)**k * h[L-1-k]."""
    if wavelet not in _LOWPASS:
        raise ValueError(f"unknown wavelet {wavelet!r}; have {sorted(_LOWPASS)}")
    h = np.array(_LOWPASS[wavelet])
    bank = h, (-1.0) ** np.arange(h.size) * h[::-1]
    for f in bank:
        f.flags.writeable = False
    return bank


def _analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One decimating analysis step with periodic extension.

    a[i] = sum_k h[k] * x[(2i + k) mod N], and likewise d with g, along the
    last axis; leading axes are a batch of independent signals. The windows
    are gathered by one ``take`` into a C-ordered block, so a row of a stack
    comes out bit for bit as it does alone. N must be even.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n % 2:
        raise ValueError(f"analysis step needs even length, got {n}")
    windows = x.take((2 * np.arange(n // 2)[:, None] + np.arange(h.size)) % n, axis=-1)
    return windows @ h, windows @ g


def max_level(n: int) -> int:
    """The deepest level n samples can be split to: one sample per leaf, 2**level <= n."""
    return n.bit_length() - 1


def _count(name: str, value: int, least: int = 1, below: float = np.inf) -> int:
    """``value`` if it is an int or np.integer, not a bool, in [least, below) with least 1 or 0;
    else a ValueError naming it as a positive or non-negative integer, or as an index below ``below``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not least <= value < below:
        kind = "a positive integer" if least else "a non-negative integer"
        raise ValueError(f"{name} must be {kind if below == np.inf else f'an integer index below {below}'}, got {value!r}")
    return value


def _signal(x: np.ndarray) -> np.ndarray:
    """``x`` as a float array, refused unless it is one-dimensional and finite: the check
    every transform runs once, before any rule reads the signal's length."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")
    return x


def _prepare(x: np.ndarray, level: int) -> np.ndarray:
    """A checked :func:`_signal`, extended periodically to a multiple of 2**level."""
    if _count("level", level) > max_level(x.size):
        raise ValueError(f"{x.size} samples cannot be split {level} times")
    pad = -x.size % 2**level  # fewer than x.size, which is at least 2**level
    return np.concatenate([x, x[:pad]])


def _stages(level: int) -> list[tuple[int, int]]:
    """Depth ranges [lo, hi) of a transform's banks, none over 4 levels: a bank grows as 4**d."""
    return [(lo, min(lo + 4, level)) for lo in range(0, level, 4)]


@functools.cache
def _paths(depth: int) -> tuple[tuple[int, ...], ...]:
    """The 2**depth leaf paths in natural order."""
    return tuple(itertools.product((0, 1), repeat=depth))


@functools.cache
def _spine(depth: int) -> tuple[tuple[int, ...], ...]:
    """The DWT's nodes: the approximation, then the details coarsest first."""
    return ((0,) * depth, *((0,) * (j - 1) + (1,) for j in range(depth, 0, -1)))


@functools.lru_cache(maxsize=32)
def _plan(n: int, wavelet: str, nodes: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
    """Analysis gather, bank and order, synthesis gather and bank of ``nodes``
    (paths of up to 4 levels) over padded length n, cached, read-only. The node
    on path b1...bj is one filter f_b1 * (f_b2 upsampled by 2) * ... at stride
    2**j (noble identities): 2**(d - j) phases at stride 2**d, one bank column
    each, from :func:`_analysis_step` on unit impulses. Synthesis is the transpose."""
    h, g = _filter_bank(wavelet)
    step = 2 ** max(map(len, nodes))
    width = ((h.size - 1) * (step - 1) // step + 1) * step  # the span (taps - 1)(step - 1) + 1, in strides
    trees = [np.eye(width)[:, None]]  # per depth: (impulse, node, coefficient)
    while trees[-1].shape[1] < step:
        a, d = _analysis_step(trees[-1], h, g)
        trees.append(np.stack([a, d], axis=2).reshape(width, -1, a.shape[-1]))
    bank = np.concatenate([trees[len(b)][:, np.ravel_multi_index(b, (2,) * len(b)), : step >> len(b)]
                           for b in nodes], axis=1)
    synthesis = np.ascontiguousarray(bank.T).reshape(-1, step)  # row (column c, lag q), col phase r
    phases, m = [step >> len(b) for b in nodes], n // step
    i, c, q = np.ogrid[:m, : bank.shape[1], : width // step]
    first = np.repeat(np.cumsum([0, *phases[:-1]]), phases)[c]  # the first column of c's node
    entry = m * first + c - first + np.repeat(phases, phases)[c] * ((i - q) % m)  # node from m * first
    taps, lives = bank.any(axis=1), synthesis.any(axis=1)  # gather no entry of an all-zero row
    plan = (((step * i[:, 0] + np.arange(width)) % n)[:, taps], bank[taps], entry[..., 0].ravel().argsort(),
            entry.reshape(m, -1)[:, lives], synthesis[lives])  # entry at lag 0: where product (i, c) goes
    for a in plan:
        a.flags.writeable = False
    return plan


def _analyze(x: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
    """The nodes' coefficients concatenated on the last axis: row i of the product, from
    x[(2**d i + k) mod n], holds coefficient i of each bank column; a last gather orders them."""
    return (x.take(plan[0], axis=-1) @ plan[1]).reshape(*x.shape[:-1], -1).take(plan[2], axis=-1)


def _synthesize(c: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
    """Signals from the nodes' coefficients concatenated on the last axis; row i reads i - q (mod m)."""
    return (c.take(plan[3], axis=-1) @ plan[4]).reshape(*c.shape[:-1], -1)


@dataclass(frozen=True)
class PacketTree:
    """Full wavelet packet decomposition down to a fixed level.

    ``leaves`` is the read-only (2**level, m) stack of the leaf coefficients in
    natural order, row i on the path of i's binary digits, for a signal extended
    to 2**level * m samples; a stack of another shape is refused when the tree
    is built.
    """

    leaves: np.ndarray
    level: int
    wavelet: str
    original_length: int

    def __post_init__(self) -> None:
        leaves = np.asarray(self.leaves, dtype=float).view()  # read-only without freezing the caller's array
        rows = len(leaves) if leaves.ndim == 2 and leaves.shape[1] else 0
        if not 1 <= self.level == max_level(rows) or rows & (rows - 1):  # rows is 2**level
            raise ValueError(f"a level-{self.level} tree holds 2**{self.level} leaves of equal length, "
                             f"got a stack of shape {np.shape(self.leaves)}")
        leaves.flags.writeable = False
        object.__setattr__(self, "leaves", leaves)


def frequency_index(path: tuple[int, ...]) -> int:
    """Position of a packet node when leaves are sorted by center frequency.

    Gray-code accumulation: each highpass branch mirrors the spectrum, so the
    natural (Paley) order 00, 01, 10, 11 maps to frequencies 0, 1, 3, 2.
    A path with a digit other than 0 or 1 names no node and is refused.
    """
    if not set(path) <= {0, 1}:
        raise ValueError(f"no node {tuple(path)}: a path's digits are 0 or 1")
    idx = 0
    for b in path:
        idx = (idx << 1) | (b ^ (idx & 1))
    return idx


def wpt_forward(x: np.ndarray, level: int, wavelet: str = "db3") -> PacketTree:
    """Decompose a signal into its full packet tree at the given level.

    Raises
    ------
    ValueError
        A level that is not a positive integer or exceeds :func:`max_level`
        of the signal's length, an unknown wavelet, or non-finite input.
    """
    x = _signal(x)
    rows = _prepare(x, level)[None]
    for lo, hi in _stages(level):
        n = rows.shape[-1]
        rows = _analyze(rows, _plan(n, wavelet, _paths(hi - lo))).reshape(-1, n >> (hi - lo))
    return PacketTree(rows, level, wavelet, x.size)


def wpt_inverse(tree: PacketTree) -> np.ndarray:
    """Rebuild the signal from all leaves, trimmed to the original length."""
    rows = tree.leaves
    for lo, hi in reversed(_stages(tree.level)):
        n = rows.shape[-1] << (hi - lo)
        rows = _synthesize(rows.reshape(-1, n), _plan(n, tree.wavelet, _paths(hi - lo)))
    return rows[0, : tree.original_length]


def reconstruct_node(tree: PacketTree, path: tuple[int, ...]) -> np.ndarray:
    """Signal-domain contribution of a single leaf (all others zeroed).

    Contributions of all leaves sum to the original signal.
    """
    path = tuple(path)
    if len(path) != tree.level or not set(path) <= {0, 1}:
        raise ValueError(f"no node {path} at level {tree.level}")
    c = tree.leaves[np.ravel_multi_index(path, (2,) * tree.level)]
    for lo, hi in reversed(_stages(tree.level)):
        c = _synthesize(c, _plan(c.size << (hi - lo), tree.wavelet, (path[lo:hi],)))
    return c[: tree.original_length]


def energy_fractions(tree: PacketTree) -> dict[tuple[int, ...], float]:
    """Fraction of total coefficient energy in each leaf, keyed by path in
    natural order, the order of the leaf stack; ``frequency_index(path)``
    gives a leaf's band.

    Fractions are nonnegative and sum to 1 (the bank preserves energy). An
    all-zero signal has no energy to apportion and raises ValueError.
    """
    energies = (tree.leaves**2).sum(axis=1).tolist()
    total = sum(energies)
    if total <= 0.0:
        raise ValueError("signal has zero energy; fractions undefined")
    return dict(zip(_paths(tree.level), (e / total for e in energies)))


def _dwt(x: np.ndarray, level: int, wavelet: str) -> np.ndarray:
    """Discrete wavelet transform of a checked :func:`_signal`, splitting the approximation
    branch only, as one padded-length array P in Mallat order: the level-L approximation
    ``c[: P >> L]``, then detail level j (finest j = 0) at ``c[P >> (j + 1) : P >> j]``. Each
    stage rewrites the approximation it splits in place; its bank writes that order."""
    c = _prepare(x, level)
    for lo, hi in _stages(level):
        k = c.size >> lo
        c[:k] = _analyze(c[:k], _plan(k, wavelet, _spine(hi - lo)))
    return c


def _idwt(c: np.ndarray, level: int, wavelet: str, n: int) -> np.ndarray:
    """Invert :func:`_dwt` along the last axis, leading axes a batch of
    decompositions inverted together, trimmed to n samples."""
    for lo, hi in reversed(_stages(level)):
        k = c.shape[-1] >> lo
        c = np.concatenate([_synthesize(c[..., :k], _plan(k, wavelet, _spine(hi - lo))), c[..., k:]], axis=-1)
    return c[..., :n]
