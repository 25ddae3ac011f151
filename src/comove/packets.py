"""Wavelet packet and plain wavelet transforms with periodic extension.

Orthonormal filter banks (db3 by default, Haar for cross-checks) and one
decimating analysis step, with its transpose, over the last axis of a stack
of signals. The packet tree is built a depth at a time on the whole
``(2**depth, m)`` node array: row r splits into rows 2r (lowpass) and 2r + 1
(highpass), so rows stay in natural (Paley) order, and the leaves are keyed
by binary paths: node {0,...,0} holds the trend, {1,...,1} the most
oscillatory content. One leaf is rebuilt along its own branch with a zero
sibling at each depth. The plain DWT is the row-0 spine of the same steps.
Lengths not divisible by 2**level are extended periodically and trimmed back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orthonormal lowpass filters (sum = sqrt(2), unit energy).
DB3_LOWPASS = np.array(
    [
        0.3326705529500826,
        0.8068915093110928,
        0.4598775021184915,
        -0.1350110200102546,
        -0.0854412738820267,
        0.0352262918857095,
    ]
)
HAAR_LOWPASS = np.array([np.sqrt(0.5), np.sqrt(0.5)])

FILTERS = {"db3": DB3_LOWPASS, "haar": HAAR_LOWPASS}


def lowpass(wavelet: str) -> np.ndarray:
    try:
        return FILTERS[wavelet]
    except KeyError:
        raise ValueError(f"unknown wavelet {wavelet!r}; have {sorted(FILTERS)}") from None


def highpass(h: np.ndarray) -> np.ndarray:
    """Quadrature mirror: g[k] = (-1)**k * h[L-1-k]."""
    k = np.arange(h.size)
    return (-1.0) ** k * h[::-1]


def analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One decimating analysis step with periodic extension.

    a[i] = sum_k h[k] * x[(2i + k) mod N], and likewise d with g, along the
    last axis; leading axes are a batch of independent signals. N must be
    even.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n % 2:
        raise ValueError(f"analysis step needs even length, got {n}")
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    windows = x[..., idx]
    return windows @ h, windows @ g


def synthesis_step(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inverse of :func:`analysis_step` (exact, the bank is orthonormal).

    The transpose of the analysis gather, one output phase r per column:
    x[2j + r] = sum_q h[r + 2q] a[(j - q) mod N/2] + g[r + 2q] d[(j - q) mod N/2]
    along the last axis; leading axes are a batch of independent signals.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape != d.shape:
        raise ValueError("approximation and detail lengths differ")
    half = a.shape[-1]
    idx = (np.arange(half)[:, None] - np.arange(h.size // 2)[None, :]) % half
    windows = np.concatenate([a[..., idx], d[..., idx]], axis=-1)
    phases = np.concatenate([h.reshape(-1, 2), g.reshape(-1, 2)])  # column r: taps r::2
    return (windows @ phases).reshape(*a.shape[:-1], 2 * half)


def _prepare(x: np.ndarray, level: int, wavelet: str) -> tuple[np.ndarray, ...]:
    """Validated signal, extended periodically to a multiple of 2**level,
    with the lowpass and highpass filters."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    h = lowpass(wavelet)
    block = 2**level
    if x.size < block:
        raise ValueError(f"{x.size} samples cannot be split {level} times")
    return np.resize(x, -(-x.size // block) * block), h, highpass(h)


@dataclass(frozen=True)
class PacketTree:
    """Full wavelet packet decomposition down to a fixed level.

    nodes maps binary path tuples of length ``level`` to coefficient arrays;
    all 2**level leaves are present, each of length padded_length / 2**level.
    """

    nodes: dict[tuple[int, ...], np.ndarray]
    level: int
    wavelet: str
    original_length: int
    padded_length: int

    def paths(self, ordering: str = "natural") -> list[tuple[int, ...]]:
        """Leaf paths in natural (Paley) or frequency order."""
        paths = sorted(self.nodes)
        if ordering == "natural":
            return paths
        if ordering == "frequency":
            return sorted(paths, key=frequency_index)
        raise ValueError(f"unknown ordering {ordering!r}")


def frequency_index(path: tuple[int, ...]) -> int:
    """Position of a packet node when leaves are sorted by center frequency.

    Gray-code accumulation: each highpass branch mirrors the spectrum, so the
    natural (Paley) order 00, 01, 10, 11 maps to frequencies 0, 1, 3, 2.
    """
    idx = 0
    for b in path:
        idx = (idx << 1) | (b ^ (idx & 1))
    return idx


def wpt_forward(x: np.ndarray, level: int, wavelet: str = "db3") -> PacketTree:
    """Decompose a signal into its full packet tree at the given level.

    Raises
    ------
    ValueError
        level < 1, unknown wavelet, non-finite input, or a signal too short
        to survive ``level`` halvings (padded length must leave at least one
        coefficient per leaf).
    """
    xp, h, g = _prepare(x, level, wavelet)
    rows = xp[None, :]
    for _ in range(level):
        a, d = analysis_step(rows, h, g)
        rows = np.stack([a, d], axis=1).reshape(2 * len(rows), -1)
    return PacketTree(
        nodes=dict(zip(np.ndindex(*(2,) * level), rows)),
        level=level,
        wavelet=wavelet,
        original_length=np.size(x),
        padded_length=xp.size,
    )


def wpt_inverse(tree: PacketTree) -> np.ndarray:
    """Rebuild the signal from all leaves, trimmed to the original length."""
    h = lowpass(tree.wavelet)
    g = highpass(h)
    rows = np.stack([tree.nodes[p] for p in tree.paths()])
    for _ in range(tree.level):
        rows = synthesis_step(rows[0::2], rows[1::2], h, g)
    return rows[0, : tree.original_length]


def reconstruct_node(tree: PacketTree, path: tuple[int, ...]) -> np.ndarray:
    """Signal-domain contribution of a single leaf (all others zeroed).

    Contributions of all leaves sum to the original signal.
    """
    path = tuple(path)
    if path not in tree.nodes:
        raise ValueError(f"no node {path} at level {tree.level}")
    h = lowpass(tree.wavelet)
    g = highpass(h)
    c = tree.nodes[path]
    for branch in reversed(path):
        zero = np.zeros_like(c)
        c = synthesis_step(zero, c, h, g) if branch else synthesis_step(c, zero, h, g)
    return c[: tree.original_length]


def energy_fractions(
    tree: PacketTree, ordering: str = "natural"
) -> dict[tuple[int, ...], float]:
    """Fraction of total coefficient energy in each leaf.

    Fractions are nonnegative and sum to 1 (the bank preserves energy). An
    all-zero signal has no energy to apportion and raises ValueError.
    """
    energies = {p: float(np.sum(tree.nodes[p] ** 2)) for p in tree.paths(ordering)}
    total = sum(energies.values())
    if total <= 0.0:
        raise ValueError("signal has zero energy; fractions undefined")
    return {p: e / total for p, e in energies.items()}


@dataclass(frozen=True)
class DwtCoeffs:
    """Plain (non-packet) wavelet decomposition: approximation chain only.

    details[0] is the finest level, details[-1] the coarsest; approx is the
    level-L approximation.
    """

    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    wavelet: str
    original_length: int
    padded_length: int

    @property
    def level(self) -> int:
        return len(self.details)


def dwt_forward(x: np.ndarray, level: int, wavelet: str = "db3") -> DwtCoeffs:
    """Discrete wavelet transform: split the approximation branch only."""
    xp, h, g = _prepare(x, level, wavelet)
    details = []
    a = xp
    for _ in range(level):
        a, d = analysis_step(a, h, g)
        details.append(d)
    return DwtCoeffs(
        approx=a,
        details=tuple(details),
        wavelet=wavelet,
        original_length=np.size(x),
        padded_length=xp.size,
    )


def dwt_inverse(coeffs: DwtCoeffs) -> np.ndarray:
    """Invert :func:`dwt_forward`, trimmed to the original length."""
    h = lowpass(coeffs.wavelet)
    g = highpass(h)
    a = coeffs.approx
    for d in reversed(coeffs.details):
        a = synthesis_step(a, d, h, g)
    return a[: coeffs.original_length]
