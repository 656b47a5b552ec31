"""Clean data generation and adversarial corruption for the two experiment
presets.

ridge:  y = <theta*, x> + e with theta* uniform in [-1,1]^d normalized to unit
        norm, x ~ N(0,1)^d entries, e ~ N(0, noise_std^2); corrupted rounds
        replace y with Uniform[0,1].
svm:    y = sign(<theta*, x>) with theta* uniform in [1,11]^d, x entries
        N(0, feature_std^2); the label flips with probability mislabel_prob
        when |<theta*, x>| <= margin_band; corrupted rounds flip the sign
        of y.

One master seed fully determines theta*, every round, the outlier set and
the mislabel coin flips. Each purpose draws from its own substream of the
master seed, so changing the corruption count k never perturbs the clean
stream (paired comparisons across k stay paired). Each substream is read in
round order, so a stream drawn in time chunks equals the one-block draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

RIDGE_MODEL = "ridge"
SVM_MODEL = "svm"


@dataclass
class CleanGenerator:
    """Clean-round data model. theta_star = None means: draw it from the seed."""

    kind: str
    dim: int
    theta_star: np.ndarray | None = None
    feature_std: float = 1.0
    noise_std: float = 0.0        # ridge only
    mislabel_prob: float = 0.0    # svm only
    margin_band: float = 0.0      # svm only

    def __post_init__(self):
        if self.kind not in (RIDGE_MODEL, SVM_MODEL):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.feature_std <= 0:
            raise ValueError("feature_std must be positive")
        if self.noise_std < 0 or not (0.0 <= self.mislabel_prob <= 1.0) or self.margin_band < 0:
            raise ValueError("invalid noise/mislabel configuration")


def ridge_generator(dim: int = 100, noise_std: float = 1e-3, feature_std: float = 1.0) -> CleanGenerator:
    """Ridge regression preset: unit-norm theta*, N(0,1) features, noise variance 1e-6."""
    return CleanGenerator(kind=RIDGE_MODEL, dim=dim, feature_std=feature_std, noise_std=noise_std)


def svm_generator(dim: int = 2, feature_std: float = 10.0, mislabel_prob: float = 0.05,
                  margin_band: float = 0.1) -> CleanGenerator:
    """SVM preset: theta* in [1,11]^d, N(0,100) features, 5% mislabels inside the margin band."""
    return CleanGenerator(kind=SVM_MODEL, dim=dim, feature_std=feature_std,
                          mislabel_prob=mislabel_prob, margin_band=margin_band)


@dataclass
class StreamRngs:
    """Independent substreams of one master seed, one per purpose."""

    theta_star: np.random.Generator
    features: np.random.Generator
    noise: np.random.Generator
    mislabel: np.random.Generator
    outliers: np.random.Generator
    corruption: np.random.Generator


def stream_rngs(seed: int) -> StreamRngs:
    children = np.random.SeedSequence(seed).spawn(6)
    return StreamRngs(*(np.random.default_rng(c) for c in children))


def draw_theta_star(gen: CleanGenerator, rng: np.random.Generator) -> np.ndarray:
    if gen.kind == RIDGE_MODEL:
        v = rng.uniform(-1.0, 1.0, gen.dim)
        return v / np.linalg.norm(v)
    return rng.uniform(1.0, 11.0, gen.dim)


def resolve_theta_star(gen: CleanGenerator, rngs: StreamRngs) -> CleanGenerator:
    """Return a generator with theta_star fixed, drawing it from the seed if unset."""
    if gen.theta_star is not None:
        return gen
    return replace(gen, theta_star=draw_theta_star(gen, rngs.theta_star))


def gen_clean_block(gen: CleanGenerator, rng: StreamRngs, T: int):
    """Vectorized generation of the next T clean rounds; returns (X, y) with X
    of shape (T, d)."""
    if gen.theta_star is None:
        raise ValueError("theta_star unset; call resolve_theta_star first")
    X = rng.features.standard_normal((T, gen.dim))
    X *= gen.feature_std
    # one dot product per round: X @ theta* sums a row differently with the
    # row's place in the block, and a chunked draw must equal the one-block draw
    dot = np.vecdot(X, gen.theta_star)
    if gen.kind == RIDGE_MODEL:
        y = dot + gen.noise_std * rng.noise.standard_normal(T)
        return X, y
    y = np.where(dot >= 0.0, 1.0, -1.0)
    u = rng.mislabel.uniform(size=T)
    flip = (np.abs(dot) <= gen.margin_band) & (u < gen.mislabel_prob)
    y[flip] = -y[flip]
    return X, y


def sample_outlier_rounds(T: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct 0-based round indices in [0, T), uniform without replacement,
    sorted ascending."""
    if not (0 <= k <= T):
        raise ValueError("need 0 <= k <= T")
    return np.sort(rng.choice(T, size=k, replace=False))


def outlier_mask(idx: np.ndarray, T: int) -> np.ndarray:
    mask = np.zeros(T, dtype=bool)
    mask[idx] = True
    return mask


def apply_corruption_block(kind: str, idx: np.ndarray, y_clean: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Corrupt the responses at the sorted round indices idx by the generator
    kind's operator: ridge replaces y with Uniform[0,1] (drawn in ascending
    round order), svm flips the label."""
    y = y_clean.copy()
    if kind == RIDGE_MODEL:
        y[idx] = rng.uniform(size=idx.size)
    else:
        y[idx] = -y[idx]
    return y


class EpisodeStream:
    """One seeded episode's stream, corrupted by the generator kind's operator
    and drawn in consecutive time chunks.

    theta* and the sorted outlier rounds are drawn when the stream is made;
    each `draw(n)` returns the next n rounds. Every substream is read in round
    order, so chunks of any sizes concatenate to the one-block draw.
    """

    def __init__(self, generator: CleanGenerator, T: int, k: int, seed: int):
        self.rngs = stream_rngs(seed)
        self.gen = resolve_theta_star(generator, self.rngs)
        self.outliers = sample_outlier_rounds(T, k, self.rngs.outliers)
        self.t = 0

    def draw(self, n: int):
        """(X, y_clean, y_emitted, the chunk's corrupted rows) of the next n
        rounds, X of shape (n, d)."""
        X, y_clean = gen_clean_block(self.gen, self.rngs, n)
        lo, hi = np.searchsorted(self.outliers, (self.t, self.t + n))
        idx = self.outliers[lo:hi] - self.t
        self.t += n
        return X, y_clean, apply_corruption_block(self.gen.kind, idx, y_clean, self.rngs.corruption), idx


def episode_stream(generator: CleanGenerator, T: int, k: int, seed: int):
    """Draw one seeded episode's stream in one block.

    Returns (generator with theta_star resolved, X, y_clean, y_emitted,
    outlier mask), X of shape (T, d).
    """
    stream = EpisodeStream(generator, T, k, seed)
    X, y_clean, y_emitted, _ = stream.draw(T)
    return stream.gen, X, y_clean, y_emitted, outlier_mask(stream.outliers, T)


def floor_power(T: int, num: int, den: int) -> int:
    """Exact floor(T^(num/den)) for the symbolic corruption grids."""
    if T < 0:
        raise ValueError("T must be >= 0")
    v = int(round(float(T) ** (num / den)))
    while v ** den > T ** num:
        v -= 1
    while (v + 1) ** den <= T ** num:
        v += 1
    return v


def k_grid(T: int) -> list:
    """The corruption sweep {0, floor(sqrt(T)), floor(T^(2/3)), floor(T/4)}."""
    return [0, math.isqrt(T), floor_power(T, 2, 3), T // 4]
