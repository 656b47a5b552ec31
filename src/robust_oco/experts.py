"""Expert aggregation for unbounded domains: a pool of gated-gradient learners
over a (step size, radius) grid, combined by exponential weights whose decay
is itself gated by the smallest eta across the pool.

Weights are kept in the log domain: over 1e4+ rounds the raw weights decay
exponentially and would underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LearnParams, RoundLoss, SideInfo, eta, eval_f_many, grad_f_many


@dataclass
class ExpertGrid:
    """Deduplicated product grid of per-expert (step size, radius) pairs.

    Step sizes are min(2^i, A_max)/sqrt(T) for i = 1..ceil(log2 A_max);
    radii are min(eps 2^j, eps 2^T)/T for j = 1..T. Radii beyond float64
    range collapse to a single unbounded expert (math.inf).
    """

    a_max: float
    epsilon: float
    T: int
    entries: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.entries)


def build_grid(a_max: float, epsilon: float, T: int) -> ExpertGrid:
    """Construct the expert parameter grid."""
    if a_max < 2:
        raise ValueError("a_max must be >= 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    sqrt_t = math.sqrt(T)
    n1 = math.ceil(math.log2(a_max))
    step_sizes = list(dict.fromkeys(min(2.0 ** i, a_max) / sqrt_t for i in range(1, n1 + 1)))

    def _radius(j: int) -> float:
        try:
            return epsilon * (2.0 ** j) / T
        except OverflowError:
            return math.inf

    cap = _radius(T)
    radii = list(dict.fromkeys(min(_radius(j), cap) for j in range(1, T + 1)))
    entries = [(alpha, D) for alpha in step_sizes for D in radii]
    return ExpertGrid(a_max=float(a_max), epsilon=float(epsilon), T=T, entries=entries)


def beta_default(N: int, T: int, nu: float) -> float:
    """Weight learning rate sqrt(8 log N / (T nu^2))."""
    if N < 2:
        raise ValueError("need at least 2 experts (log N must be positive)")
    if T < 1 or nu <= 0:
        raise ValueError("T must be >= 1 and nu positive")
    return math.sqrt(8.0 * math.log(N) / (T * nu * nu))


@dataclass
class ExpertPool:
    """Expert states stored columnwise: row tau of thetas is expert tau's action.

    log_weights start at 0 (all weights 1) and only decrease.
    """

    grid: ExpertGrid
    beta: float
    thetas: np.ndarray       # (N, d)
    step_sizes: np.ndarray   # (N,)
    radii: np.ndarray        # (N,)
    log_weights: np.ndarray  # (N,)


def init_pool(grid: ExpertGrid, dim: int, beta: float) -> ExpertPool:
    """Fresh pool with every expert starting at the origin and unit weights."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if grid.n == 0:
        raise ValueError("grid has no entries")
    step_sizes = np.array([e[0] for e in grid.entries])
    radii = np.array([e[1] for e in grid.entries])
    return ExpertPool(
        grid=grid,
        beta=beta,
        thetas=np.zeros((grid.n, dim)),
        step_sizes=step_sizes,
        radii=radii,
        log_weights=np.zeros(grid.n),
    )


def aggregate_action(pool: ExpertPool) -> np.ndarray:
    """Weight-normalized convex combination of expert actions (log-sum-exp normalized)."""
    lw = pool.log_weights
    if lw.size == 0:
        raise ValueError("empty pool")
    w = np.exp(lw - lw.max())
    w /= w.sum()
    return w @ pool.thetas


def pool_step(pool: ExpertPool, s: SideInfo, loss: RoundLoss, params: LearnParams) -> ExpertPool:
    """Advance every expert one round and decay the weights.

    The weight update uses the pre-update loss values f_t(s, theta^tau) and
    the minimum gate eta_min over those same values, so a single wildly
    corrupted round cannot collapse the weights.
    """
    f_vals = eval_f_many(loss, s, pool.thetas)
    etas = eta(params, f_vals)

    grads = grad_f_many(loss, s, pool.thetas)
    pool.thetas -= (pool.step_sizes * etas)[:, None] * grads
    norms = np.sqrt(np.einsum("ij,ij->i", pool.thetas, pool.thetas))
    scale = np.where(norms > pool.radii, pool.radii / np.maximum(norms, 1e-300), 1.0)
    pool.thetas *= scale[:, None]

    eta_min = float(etas.min())
    pool.log_weights -= pool.beta * eta_min * f_vals
    return pool
