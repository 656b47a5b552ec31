"""Clean data generation and adversarial corruption for the two experiment
presets.

ridge:  y = <theta*, x> + e with theta* uniform in [-1,1]^d normalized to unit
        norm, x ~ N(0,1)^d entries, e ~ N(0, noise_std^2); corrupted rounds
        replace y with Uniform[0,1].
svm:    y = sign(<theta*, x>) with theta* uniform in [1,11]^d, x entries
        N(0, feature_std^2); the label flips with probability mislabel_prob
        when |<theta*, x>| <= margin_band (so a mislabel_prob > 0 needs a
        margin_band > 0); corrupted rounds flip the sign of y.

A generator holds the data model's settings only (the presets' values are
in `harness.PRESETS`). One master seed fully determines theta*, every round,
the outlier set and the mislabel coin flips. Each purpose draws from its own
substream of the master seed, built on first use: changing the corruption
count k never perturbs the clean stream (paired comparisons across k stay
paired), one draw of the clean rounds serves every k of a sweep, a k of 0
builds no outliers generator, and svm's sign flips build no corruption one.
Substreams are read in round order, so a chunked draw equals a one-block one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RIDGE_MODEL = "ridge"
SVM_MODEL = "svm"


@dataclass(frozen=True)
class CleanGenerator:
    """Clean-round data model: plain settings, with no seed and no theta*,
    so one instance serves every config and seed."""

    kind: str
    dim: int
    feature_std: float = 1.0
    noise_std: float = 0.0        # ridge only
    mislabel_prob: float = 0.0    # svm only
    margin_band: float = 0.0      # svm only

    def __post_init__(self):
        if self.kind not in (RIDGE_MODEL, SVM_MODEL):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.feature_std < math.inf:
            raise ValueError("feature_std must be positive and finite")
        if not (0.0 <= self.noise_std < math.inf and 0.0 <= self.mislabel_prob <= 1.0
                and 0.0 <= self.margin_band < math.inf):
            raise ValueError("invalid noise/mislabel configuration")
        for name in ("mislabel_prob", "margin_band") if self.kind == RIDGE_MODEL else ("noise_std",):
            if getattr(self, name):   # a manifest would echo it as if it took effect
                raise ValueError(f"the {self.kind} model reads no {name}: it must be 0.0, got {getattr(self, name)}")
        if self.mislabel_prob and not self.margin_band:   # a flip needs |<theta*, x>| <= margin_band
            raise ValueError(f"mislabel_prob = {self.mislabel_prob} flips no label at margin_band = 0.0: "
                             "give a positive margin_band or mislabel_prob = 0.0")


SUBSTREAMS = ("theta_star", "features", "noise", "mislabel", "outliers", "corruption")


@dataclass
class StreamRngs:
    """Independent substreams of one master seed, one per purpose: SUBSTREAMS[i]
    is child i of SeedSequence(seed).spawn(6), its generator built when first read."""

    seed: int

    def __getattr__(self, name: str) -> np.random.Generator:
        if name not in SUBSTREAMS:
            raise AttributeError(name)
        setattr(self, name, self.fresh(name))
        return self.__dict__[name]

    def fresh(self, name: str) -> np.random.Generator:
        """A new generator at the start of the named substream."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(SUBSTREAMS.index(name),)))


def stream_rngs(seed: int) -> StreamRngs:
    return StreamRngs(seed)


def resolve_theta_star(gen: CleanGenerator, rngs: StreamRngs) -> np.ndarray:
    """The seed's theta*, drawn from its theta_star substream: uniform in
    [-1,1]^d normalized to unit norm (ridge) or uniform in [1,11]^d (svm)."""
    if gen.kind == RIDGE_MODEL:
        v = rngs.theta_star.uniform(-1.0, 1.0, gen.dim)
        return v / np.linalg.norm(v)
    return rngs.theta_star.uniform(1.0, 11.0, gen.dim)


def gen_clean_block(gen: CleanGenerator, theta_star: np.ndarray, rng: StreamRngs, T: int):
    """Vectorized generation of the next T clean rounds under theta_star;
    returns (X, y) with X of shape (T, d)."""
    X = rng.features.standard_normal((T, gen.dim))
    X *= gen.feature_std
    # one dot product per round: X @ theta* sums a row differently with the
    # row's place in the block, and a chunked draw must equal the one-block draw
    dot = np.vecdot(X, theta_star)
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
    round order), svm flips the label; an empty idx leaves rng untouched."""
    y = y_clean.copy()
    if kind != RIDGE_MODEL:
        y[idx] = -y[idx]
    elif idx.size:
        y[idx] = rng.uniform(size=idx.size)
    return y


class EpisodeStream:
    """One seeded episode's stream under each corruption count of ks: theta*
    (held as theta_star) and each k's sorted outlier rounds are drawn when it
    is made, and each `draw(n)` draws the next n clean rounds once and
    corrupts them once per k by the generator kind's operator. Each k > 0
    reads from the start of the seed's outliers substream (one generator,
    rewound) and of its corruption substream (ridge only: a fresh generator
    per k, as each is read on across chunks), so it equals the stream of
    that k alone; chunks of any sizes concatenate to the one-block draw."""

    def __init__(self, generator: CleanGenerator, T: int, ks, seed: int):
        self.gen = generator
        self.rngs = stream_rngs(seed)
        self.theta_star = resolve_theta_star(generator, self.rngs)
        self.outliers = [np.zeros(0, np.int64) for _ in ks]
        if any(ks):   # one generator, rewound for each k: several times cheaper than a fresh one per k
            rng = self.rngs.outliers
            start = rng.bit_generator.state
            for i, k in enumerate(ks):
                if k:
                    rng.bit_generator.state = start
                    self.outliers[i] = sample_outlier_rounds(T, k, rng)
        ridge = generator.kind == RIDGE_MODEL
        self.corruption = [self.rngs.fresh("corruption") if k and ridge else None for k in ks]
        self.t = 0

    def draw(self, n: int):
        """(X, y_clean, emitted) of the next n rounds, X of shape (n, d);
        emitted holds (y_emitted, the chunk's corrupted rows) for each k."""
        X, y_clean = gen_clean_block(self.gen, self.theta_star, self.rngs, n)
        emitted = []
        for outliers, rng in zip(self.outliers, self.corruption):
            lo, hi = np.searchsorted(outliers, (self.t, self.t + n))
            idx = outliers[lo:hi] - self.t
            emitted.append((apply_corruption_block(self.gen.kind, idx, y_clean, rng), idx))
        self.t += n
        return X, y_clean, emitted


def k_grid(T: int) -> list:
    """The distinct values of the corruption sweep {0, floor(sqrt(T)), floor(T^(2/3)), floor(T/4)}, in order."""
    root, k = math.isqrt(T), round(T ** (2 / 3))   # isqrt rejects a negative T; the estimate k is made exact
    while k ** 3 > T * T:
        k -= 1
    while (k + 1) ** 3 <= T * T:
        k += 1
    return list(dict.fromkeys([0, root, k, T // 4]))
