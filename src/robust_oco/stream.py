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
stream (paired comparisons across k stay paired).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .losses import SideInfo

RIDGE_MODEL = "ridge"
SVM_MODEL = "svm"

UNIFORM_RESPONSE = "uniform_response"
LABEL_FLIP = "label_flip"

# operator appropriate to each generator kind
OPERATOR_FOR_KIND = {RIDGE_MODEL: UNIFORM_RESPONSE, SVM_MODEL: LABEL_FLIP}


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


def gen_clean_round(gen: CleanGenerator, rng: StreamRngs, t: int) -> SideInfo:
    """Generate the clean side information of one round.

    Draws are consumed sequentially from the substreams, so calling this for
    t = 1, 2, ... reproduces exactly the rows of gen_clean_block. sign(0) is
    taken as +1.
    """
    if gen.theta_star is None:
        raise ValueError("theta_star unset; call resolve_theta_star first")
    x = gen.feature_std * rng.features.standard_normal(gen.dim)
    dot = float(gen.theta_star @ x)
    if gen.kind == RIDGE_MODEL:
        y = dot + gen.noise_std * float(rng.noise.standard_normal())
        return SideInfo(x=x, y=y)
    y = 1.0 if dot >= 0.0 else -1.0
    u = float(rng.mislabel.uniform())  # drawn every round to keep streams aligned
    if abs(dot) <= gen.margin_band and u < gen.mislabel_prob:
        y = -y
    return SideInfo(x=x, y=y)


def gen_clean_block(gen: CleanGenerator, rng: StreamRngs, T: int):
    """Vectorized generation of T clean rounds; returns (X, y) with X of shape (T, d)."""
    if gen.theta_star is None:
        raise ValueError("theta_star unset; call resolve_theta_star first")
    X = gen.feature_std * rng.features.standard_normal((T, gen.dim))
    dot = X @ gen.theta_star
    if gen.kind == RIDGE_MODEL:
        y = dot + gen.noise_std * rng.noise.standard_normal(T)
        return X, y
    y = np.where(dot >= 0.0, 1.0, -1.0)
    u = rng.mislabel.uniform(size=T)
    flip = (np.abs(dot) <= gen.margin_band) & (u < gen.mislabel_prob)
    y[flip] = -y[flip]
    return X, y


@dataclass
class CorruptionPlan:
    """Which rounds the adversary corrupts (1-based indices) and how."""

    k: int
    outlier_rounds: frozenset
    operator: str

    def __post_init__(self):
        if self.operator not in (UNIFORM_RESPONSE, LABEL_FLIP):
            raise ValueError(f"unknown corruption operator {self.operator!r}")
        if len(self.outlier_rounds) != self.k:
            raise ValueError("outlier_rounds must contain exactly k distinct indices")


def sample_outlier_rounds(T: int, k: int, rng: np.random.Generator) -> frozenset:
    """k distinct round indices in {1..T}, uniform without replacement."""
    if not (0 <= k <= T):
        raise ValueError("need 0 <= k <= T")
    idx = rng.choice(T, size=k, replace=False)
    return frozenset(int(i) + 1 for i in idx)


def corrupt(plan: CorruptionPlan, clean: SideInfo, rng: np.random.Generator) -> SideInfo:
    """Apply the corruption operator to one round's side information."""
    if plan.operator == UNIFORM_RESPONSE:
        return SideInfo(x=clean.x, y=float(rng.uniform()))
    return SideInfo(x=clean.x, y=-clean.y)


def outlier_mask(plan: CorruptionPlan, T: int) -> np.ndarray:
    mask = np.zeros(T, dtype=bool)
    for t in plan.outlier_rounds:
        mask[t - 1] = True
    return mask


def apply_corruption_block(plan: CorruptionPlan, y_clean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized corruption of the response vector.

    Uniform responses are drawn in ascending round order, matching the
    per-round corrupt() consumption.
    """
    y = y_clean.copy()
    idx = np.array(sorted(t - 1 for t in plan.outlier_rounds), dtype=int)
    if idx.size == 0:
        return y
    if plan.operator == UNIFORM_RESPONSE:
        y[idx] = rng.uniform(size=idx.size)
    else:
        y[idx] = -y[idx]
    return y


def episode_stream(generator: CleanGenerator, T: int, k: int, seed: int):
    """Draw one seeded episode's stream, corrupted by the generator kind's operator.

    Returns (generator with theta_star resolved, X, y_clean, y_emitted,
    outlier mask), X of shape (T, d).
    """
    rngs = stream_rngs(seed)
    gen = resolve_theta_star(generator, rngs)
    X, y_clean = gen_clean_block(gen, rngs, T)
    plan = CorruptionPlan(k=k, outlier_rounds=sample_outlier_rounds(T, k, rngs.outliers),
                          operator=OPERATOR_FOR_KIND[gen.kind])
    y_emitted = apply_corruption_block(plan, y_clean, rngs.corruption)
    return gen, X, y_clean, y_emitted, outlier_mask(plan, T)


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
