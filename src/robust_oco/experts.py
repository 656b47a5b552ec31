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

One ExpertPool holds the pools of a cell's R seeds, stacked and padded to the
largest seed's row count, and one pool_step advances them all. Each seed's
numbers are those of its pool stepped alone, bit for bit, whatever seeds
share the stack: every element-wise step and every max or min runs on the
stack, while a sum whose order depends on the row count (the BLAS products
<x, theta> and w @ thetas, and the weight total) is taken over the seed's
own rows. A batched product over the stack is that only for a seed whose
rows fill it, so a padded seed takes its <x, theta> again on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .learners import project_rows
from .losses import LearnParams, RoundLoss, _link, _link_coef, _link_value, eta
from .losses import eval_f_many, grad_f_many  # noqa: F401 (bench/tracing.py wraps these names here)


@dataclass
class ExpertGrid:
    """The experts' (step size, radius) product grid, held as its two axes,
    each ascending and without repeats: expert (i, j) has step size
    step_sizes[i] and radius radii[j]. build_grid forms them."""

    step_sizes: np.ndarray   # (S,)
    radii: np.ndarray        # (J,) the radius ladder

    @property
    def n(self) -> int:
        return self.step_sizes.size * self.radii.size


def build_grid(a_max: float, epsilon: float, T: int) -> ExpertGrid:
    """The grid of A_max, epsilon and T: step sizes min(2^i, A_max)/sqrt(T) for i = 1..ceil(log2
    A_max) and radii min(eps 2^j, eps 2^T)/T for j = 1..T, each deduplicated; radii beyond
    float64 range collapse to a single unbounded expert (math.inf). So N <= T ceil(log2 A_max),
    while T log2 A_max can be smaller than N."""
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
    return ExpertGrid(step_sizes=step_sizes, radii=radii)


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
    """The pools of R seeds over one grid, stacked: seed r's rows are
    thetas[r, :rows[r]], one row per group of identical experts, and its
    rows past that, up to M = max(rows), are padding.

    Row i of a seed is the action thetas[r, i] of experts with step size
    step_sizes[r, i]. Its first shared rows (first[r] < grid.radii.size)
    are one per step size at first: radius inf, so never projected. Shared
    row i holds the grid.radii.size - first[r, i] experts with radii
    grid.radii[first[r, i]:], whose iterates have so far equalled its
    unprojected one. The round its norm first exceeds grid.radii[first[r,
    i]], each of those experts with a radius below the norm splits off as a
    row of its own at the end of the seed's rows (one expert, its own
    radius, the shared row's log-weight), and first[r, i] moves past them; a
    shared row left with none is dropped, and first[r] is padded with
    grid.radii.size. Pools read their grid and never change it, so the
    seeds of a cell share one.

    log_weights start at 0 (all weights 1) and only decrease. A padded row
    sits at the origin with step size 0, radius inf, log-weight -inf (no
    aggregation weight) and no experts. pool_step evaluates it as if
    <x, theta> were y, where the ridge loss and the hinge loss of a label
    y = +-1 are 0 at the origin, so its gate is 1/(1+b), the largest there
    is, and it never sets eta_min.
    counts and limits cache, per split, what the rounds read of first: each
    row's expert count and each shared row's smallest radius (inf past the
    shared rows).
    """

    grid: ExpertGrid
    beta: float
    thetas: np.ndarray       # (R, M, d)
    step_sizes: np.ndarray   # (R, M)
    radii: np.ndarray        # (R, M) inf on a shared row
    log_weights: np.ndarray  # (R, M)
    first: np.ndarray        # (R, S) where each shared row's radii start in grid.radii
    rows: np.ndarray         # (R,) each seed's row count
    counts: np.ndarray       # (R, M) experts per row, as floats: 0 on padding
    limits: np.ndarray       # (R, S) grid.radii[first], inf past a seed's shared rows


# what a padded row holds, per stacked field
_PADDING = (("thetas", 0.0), ("step_sizes", 0.0), ("radii", math.inf), ("log_weights", -math.inf),
            ("counts", 0.0))


def init_pool(grid: ExpertGrid, dim: int, beta: float, pools: int = 1) -> ExpertPool:
    """`pools` fresh pools, stacked: one shared row per step size at the
    origin, unit weights."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if grid.n == 0:
        raise ValueError("grid has no entries")
    n = grid.step_sizes.size
    return ExpertPool(
        grid=grid,
        beta=beta,
        thetas=np.zeros((pools, n, dim)),
        step_sizes=np.tile(grid.step_sizes, (pools, 1)),
        radii=np.full((pools, n), math.inf),
        log_weights=np.zeros((pools, n)),
        first=np.zeros((pools, n), dtype=int),
        rows=np.full(pools, n),
        counts=np.full((pools, n), float(grid.radii.size)),
        limits=np.full((pools, n), grid.radii[0]),
    )


def aggregate_action(pool: ExpertPool) -> np.ndarray:
    """Each seed's weight-normalized convex combination of its expert
    actions (log-sum-exp normalized), each row weighted by its expert count;
    (R, d). The weight total and the combination are per seed, over its own
    rows."""
    lw = pool.log_weights
    w = np.exp(lw - np.maximum.reduce(lw, axis=1, keepdims=True))
    w *= pool.counts
    actions = np.empty((len(w), pool.thetas.shape[2]))
    for r, n in enumerate(pool.rows.tolist()):
        seed_w = w[r, :n]
        seed_w /= np.add.reduce(seed_w, keepdims=True)   # a (1,) divisor: a numpy scalar would take the slower path
        np.matmul(seed_w, pool.thetas[r, :n], out=actions[r])
    return actions


def pool_step(pool: ExpertPool, X: np.ndarray, Y: np.ndarray, loss: RoundLoss, params: LearnParams) -> ExpertPool:
    """Advance every expert of every seed one round, on seed r's side
    information X[r] (d,) and Y[r], and decay the weights.

    The weight update uses the pre-update loss values f_t(s, theta^tau) and
    each seed's minimum gate eta_min over those same values, so a single
    wildly corrupted round cannot collapse the weights.
    """
    thetas, y = pool.thetas, Y[:, None]
    proj = np.matmul(thetas, X[..., None])[..., 0]   # <x, theta>
    M = thetas.shape[1]
    for r, n in enumerate(pool.rows.tolist()):
        if n < M:   # a batched product equals the seed's own only over a full stack
            np.matmul(thetas[r, :n], X[r], out=proj[r, :n])
            proj[r, n:] = Y[r]   # a padded row's loss is then 0, and its gate the largest there is
    u = _link(loss, proj, y)
    f_vals = _link_value(loss, u, np.einsum("rij,rij->ri", thetas, thetas))
    etas = eta(params, f_vals)

    grads = loss.lam * thetas - _link_coef(loss, u, y)[..., None] * X[:, None]
    thetas -= (pool.step_sizes * etas)[..., None] * grads
    norms = project_rows(thetas, pool.radii)

    pool.log_weights -= pool.beta * np.minimum.reduce(etas, axis=1, keepdims=True) * f_vals
    over = norms[:, :pool.limits.shape[1]] > pool.limits   # a NaN norm splits nothing
    if np.count_nonzero(over):
        for r in np.flatnonzero(over.any(axis=1)):
            shared = np.flatnonzero(over[r])
            _split(pool, r, shared, norms[r, shared])
    return pool


def _split(pool: ExpertPool, r: int, shared: np.ndarray, norms: np.ndarray):
    """Give every expert of seed r's shared rows `shared` whose radius is
    below its row's new norm a row of its own, the shared row's iterate
    projected onto its ball; the new rows go by ascending shared row, then
    ascending radius, after the seed's rows, and the stack grows to hold
    them. Then drop the seed's emptied shared rows, and trim the stack to
    the largest seed's row count."""
    ladder = pool.grid.radii
    first = pool.first[r]
    n_shared = np.count_nonzero(first < ladder.size)
    start, stop = first[shared], np.searchsorted(ladder, norms)   # radii < norm
    new = np.repeat(shared, stop - start)
    radii = np.concatenate([ladder[a:b] for a, b in zip(start, stop)])
    first[shared] = stop
    n, m = pool.rows[r], pool.rows[r] + new.size
    if m > pool.thetas.shape[1]:
        _resize(pool, m)
    split = pool.thetas[r, new]
    project_rows(split, radii)
    pool.thetas[r, n:m] = split
    pool.step_sizes[r, n:m] = pool.step_sizes[r, new]
    pool.radii[r, n:m] = radii
    pool.log_weights[r, n:m] = pool.log_weights[r, new]

    empty = np.flatnonzero(first[:n_shared] == ladder.size)
    if empty.size:
        keep = np.delete(np.arange(m), empty)
        for name, pad in _PADDING:
            seed = getattr(pool, name)[r]
            seed[:keep.size] = seed[keep]
            seed[keep.size:m] = pad
        first[:n_shared] = np.append(np.delete(first[:n_shared], empty), [ladder.size] * empty.size)
        n_shared, m = n_shared - empty.size, keep.size
    pool.rows[r] = m
    pool.counts[r, :n_shared] = ladder.size - first[:n_shared]
    pool.counts[r, n_shared:m] = 1.0
    pool.counts[r, m:] = 0.0
    pool.limits[r] = np.append(ladder, math.inf)[first]
    if pool.rows.max() < pool.thetas.shape[1]:
        _resize(pool, int(pool.rows.max()))


def _resize(pool: ExpertPool, M: int):
    """Pad or trim the stack to M rows per seed."""
    for name, pad in _PADDING:
        rows = getattr(pool, name)
        resized = np.full(rows.shape[:1] + (M,) + rows.shape[2:], pad)
        keep = min(M, rows.shape[1])
        resized[:, :keep] = rows[:, :keep]
        setattr(pool, name, resized)
