"""Expert aggregation for unbounded domains: a pool of gated-gradient learners
over a (step size, radius) grid, combined by exponential weights whose decay
is itself gated by the smallest eta across the pool.

Experts with one step size share a state until their projections first
differ: every radius above the largest norm a trajectory reaches leaves that
expert a copy of the unbounded one. The pool therefore stores one row per
group of identical experts, and splits a group only when an iterate's norm
crosses a member's radius. The grid size N, and with it the weight rate
beta, stays that of the logical grid.

Weights are kept in the log domain: over 1e4+ rounds the raw weights decay
exponentially and would underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .learners import project_rows
from .losses import LearnParams, RoundLoss, SideInfo, eta, eval_f_many, grad_f_many


@dataclass
class ExpertGrid:
    """The experts' (step size, radius) product grid, held as its two axes:
    expert (i, j) has step size step_sizes[i] and radius radii[j].

    Step sizes are min(2^i, A_max)/sqrt(T) for i = 1..ceil(log2 A_max);
    radii are min(eps 2^j, eps 2^T)/T for j = 1..T. Each axis is ascending
    and deduplicated; radii beyond float64 range collapse to a single
    unbounded expert (math.inf). So N <= T ceil(log2 A_max); T log2 A_max
    can be smaller than N.
    """

    a_max: float
    epsilon: float
    T: int
    step_sizes: np.ndarray   # (S,)
    radii: np.ndarray        # (J,) the radius ladder

    @property
    def n(self) -> int:
        return self.step_sizes.size * self.radii.size


def build_grid(a_max: float, epsilon: float, T: int) -> ExpertGrid:
    """Construct the expert parameter grid."""
    if a_max < 2:
        raise ValueError("a_max must be >= 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    i = np.arange(1, math.ceil(math.log2(a_max)) + 1)
    step_sizes = _distinct(np.minimum(np.ldexp(1.0, i), a_max) / math.sqrt(T))
    j = np.arange(1, min(T, 1023) + 1)   # 2.0 ** j leaves float64 range from j = 1024 on
    with np.errstate(over="ignore"):     # an eps 2^j beyond that range is inf too
        radii = np.ldexp(float(epsilon), j) / T
    radii = _distinct(np.append(radii, [math.inf] if T >= 1024 else []))
    return ExpertGrid(a_max=float(a_max), epsilon=float(epsilon), T=T, step_sizes=step_sizes, radii=radii)


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The array without its repeats. Not np.unique: its first call in a
    process adds 1.6 MB to the peak RSS, and the input is sorted already."""
    return ascending[np.append(True, ascending[1:] != ascending[:-1])]


def beta_default(N: int, T: int, nu: float) -> float:
    """Weight learning rate sqrt(8 log N / (T nu^2))."""
    if N < 2:
        raise ValueError("need at least 2 experts (log N must be positive)")
    if T < 1 or nu <= 0:
        raise ValueError("T must be >= 1 and nu positive")
    return math.sqrt(8.0 * math.log(N) / (T * nu * nu))


@dataclass
class ExpertPool:
    """Expert states stored by rows, one row per group of identical experts.

    Row r is the action thetas[r] of experts with step size step_sizes[r].
    Rows 0 .. first.size - 1 are the shared rows, one per step size at
    first: radius inf, so never projected. Shared row i holds the
    grid.radii.size - first[i] experts with radii grid.radii[first[i]:],
    whose iterates have so far equalled its unprojected one. The round its
    norm first exceeds grid.radii[first[i]], each of those experts with a
    radius below the norm splits off as a row of its own (one expert, its own
    radius, the shared row's log-weight) and first[i] moves past them; a
    shared row left with none (first[i] == grid.radii.size) is dropped. Pools read their grid and never
    change it, so the pools of a cell's seeds share one.

    log_weights start at 0 (all weights 1) and only decrease.
    """

    grid: ExpertGrid
    beta: float
    thetas: np.ndarray       # (R, d)
    step_sizes: np.ndarray   # (R,)
    radii: np.ndarray        # (R,) inf on a shared row
    log_weights: np.ndarray  # (R,)
    first: np.ndarray        # (shared rows,) where each shared row's radii start in grid.radii


def init_pool(grid: ExpertGrid, dim: int, beta: float) -> ExpertPool:
    """Fresh pool: one shared row per step size at the origin, unit weights."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if grid.n == 0:
        raise ValueError("grid has no entries")
    n = grid.step_sizes.size
    return ExpertPool(
        grid=grid,
        beta=beta,
        thetas=np.zeros((n, dim)),
        step_sizes=grid.step_sizes.copy(),
        radii=np.full(n, math.inf),
        log_weights=np.zeros(n),
        first=np.zeros(n, dtype=int),
    )


def aggregate_action(pool: ExpertPool) -> np.ndarray:
    """Weight-normalized convex combination of expert actions (log-sum-exp
    normalized), each row weighted by its expert count: grid.radii.size -
    first[i] on shared row i, one on a split row."""
    lw = pool.log_weights
    if lw.size == 0:
        raise ValueError("empty pool")
    w = np.exp(lw - lw.max())
    w[:pool.first.size] *= pool.grid.radii.size - pool.first
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
    norms = project_rows(pool.thetas, pool.radii)

    eta_min = float(etas.min())
    pool.log_weights -= pool.beta * eta_min * f_vals
    shared_norms = norms[:pool.first.size]
    over = shared_norms > pool.grid.radii[pool.first]   # a NaN norm splits nothing
    if over.any():
        _split(pool, np.flatnonzero(over), shared_norms[over])
    return pool


def _split(pool: ExpertPool, shared: np.ndarray, norms: np.ndarray):
    """Give every expert of the shared rows `shared` whose radius is below its
    row's new norm a row of its own, the shared row's iterate projected onto
    its ball; the new rows go by ascending shared row, then ascending radius."""
    ladder = pool.grid.radii
    start, stop = pool.first[shared], np.searchsorted(ladder, norms)   # radii < norm
    rows = np.repeat(shared, stop - start)
    radii = np.concatenate([ladder[a:b] for a, b in zip(start, stop)])
    pool.first[shared] = stop
    split = pool.thetas[rows]
    project_rows(split, radii)
    pool.thetas = np.vstack([pool.thetas, split])
    pool.step_sizes = np.concatenate([pool.step_sizes, pool.step_sizes[rows]])
    pool.radii = np.concatenate([pool.radii, radii])
    pool.log_weights = np.concatenate([pool.log_weights, pool.log_weights[rows]])

    empty = np.flatnonzero(pool.first == ladder.size)
    if empty.size:
        for name in ("thetas", "step_sizes", "radii", "log_weights", "first"):
            setattr(pool, name, np.delete(getattr(pool, name), empty, axis=0))
