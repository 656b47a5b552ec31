"""Expert aggregation for unbounded domains: a pool of gated-gradient learners
over a (step size, radius) grid, combined by exponential weights whose decay
is itself gated by the smallest eta across the pool.

Experts with one step size share a state until their projections first
differ: every radius above the largest norm a trajectory reaches leaves that
expert a copy of the unbounded one. The pool therefore stores one row per
group of identical experts with its count, and splits a group only when an
iterate's norm crosses a member's radius. The grid size N, and with it the
weight rate beta, stays that of the logical grid.

Weights are kept in the log domain: over 1e4+ rounds the raw weights decay
exponentially and would underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .learners import project_rows
from .losses import LearnParams, RoundLoss, SideInfo, eta, eval_f_many, grad_f_many


@dataclass
class ExpertGrid:
    """Deduplicated product grid of per-expert (step size, radius) pairs.

    Step sizes are min(2^i, A_max)/sqrt(T) for i = 1..ceil(log2 A_max);
    radii are min(eps 2^j, eps 2^T)/T for j = 1..T. Radii beyond float64
    range collapse to a single unbounded expert (math.inf). So N <=
    T ceil(log2 A_max); T log2 A_max can be smaller than N.
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
    """Expert states stored by rows, one row per group of identical experts.

    Row r is the action thetas[r] of counts[r] experts with step size
    step_sizes[r]. The first len(members) rows are the shared rows, one per
    step size: radius inf, so never projected, and members[i] holds the radii
    (ascending) of the experts whose iterate has so far equalled that
    unprojected iterate. The round the shared row's norm first exceeds a
    member's radius, the member splits off as a row of its own (count 1, its
    own radius, the shared row's log-weight). A shared row left with no members
    is dropped. next_radius[i] is members[i][0], so a round without a split
    costs one comparison.

    log_weights start at 0 (all weights 1) and only decrease.
    """

    grid: ExpertGrid
    beta: float
    thetas: np.ndarray       # (R, d)
    step_sizes: np.ndarray   # (R,)
    radii: np.ndarray        # (R,) inf on a shared row
    log_weights: np.ndarray  # (R,)
    counts: np.ndarray       # (R,) experts per row
    members: list            # per shared row, its members' radii ascending
    next_radius: np.ndarray  # (len(members),) smallest member radius of each shared row


def init_pool(grid: ExpertGrid, dim: int, beta: float) -> ExpertPool:
    """Fresh pool: one shared row per step size at the origin, unit weights."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if grid.n == 0:
        raise ValueError("grid has no entries")
    groups: dict = {}
    for alpha, D in grid.entries:
        groups.setdefault(alpha, []).append(D)
    members = [np.sort(np.array(radii, dtype=float)) for radii in groups.values()]
    n = len(members)
    return ExpertPool(
        grid=grid,
        beta=beta,
        thetas=np.zeros((n, dim)),
        step_sizes=np.array(list(groups), dtype=float),
        radii=np.full(n, math.inf),
        log_weights=np.zeros(n),
        counts=np.array([m.size for m in members]),
        members=members,
        next_radius=np.array([m[0] for m in members]),
    )


def aggregate_action(pool: ExpertPool) -> np.ndarray:
    """Weight-normalized convex combination of expert actions (log-sum-exp
    normalized), each row weighted by its count."""
    lw = pool.log_weights
    if lw.size == 0:
        raise ValueError("empty pool")
    w = pool.counts * np.exp(lw - lw.max())
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
    shared_norms = norms[:len(pool.members)]
    if np.any(shared_norms > pool.next_radius):
        _split(pool, shared_norms)
    return pool


def _split(pool: ExpertPool, shared_norms: np.ndarray):
    """Give every member whose radius is below its shared row's new norm a row
    of its own, its shared row's iterate projected onto its ball."""
    rows, radii = [], []
    for i in np.flatnonzero(shared_norms > pool.next_radius):
        n = int(np.searchsorted(pool.members[i], shared_norms[i]))   # radii < norm
        rows.append(np.full(n, i))
        radii.append(pool.members[i][:n])
        pool.members[i] = pool.members[i][n:]
        pool.counts[i] -= n
        pool.next_radius[i] = pool.members[i][0] if pool.members[i].size else math.inf
    rows, radii = np.concatenate(rows), np.concatenate(radii)
    split = pool.thetas[rows]
    project_rows(split, radii)
    pool.thetas = np.vstack([pool.thetas, split])
    pool.step_sizes = np.concatenate([pool.step_sizes, pool.step_sizes[rows]])
    pool.radii = np.concatenate([pool.radii, radii])
    pool.log_weights = np.concatenate([pool.log_weights, pool.log_weights[rows]])
    pool.counts = np.concatenate([pool.counts, np.ones(rows.size, dtype=pool.counts.dtype)])

    empty = [i for i, m in enumerate(pool.members) if m.size == 0]
    if empty:
        for name in ("thetas", "step_sizes", "radii", "log_weights", "counts"):
            setattr(pool, name, np.delete(getattr(pool, name), empty, axis=0))
        pool.members = [m for m in pool.members if m.size]
        pool.next_radius = np.delete(pool.next_radius, empty)
