import math

import numpy as np
import pytest

from robust_oco import harness
from robust_oco.learners import project_rows
from robust_oco.losses import (
    RIDGE,
    LearnParams,
    RoundLoss,
    SideInfo,
    _min_scale,
    _transform,
    eta,
    eval_f,
    eval_f_many,
    grad_f_many,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_instance(rng, family, lam=None, max_dim=6):
    """A random (loss, side-info) pair with moderate feature norms."""
    d = int(rng.integers(1, max_dim + 1))
    x = rng.standard_normal(d)
    x *= rng.uniform(0.3, 3.0) / np.linalg.norm(x)
    if family == RIDGE:
        y = float(rng.normal(0.0, 2.0))
    else:
        y = float(rng.choice([-1.0, 1.0]))
    lam = float(rng.uniform(1e-4, 2.0)) if lam is None else lam
    return RoundLoss(family=family, lam=lam), SideInfo(x=x, y=y)


def minimizer_f(loss: RoundLoss, s: SideInfo) -> np.ndarray:
    """Unconstrained minimizer of one round's loss: the one-round form of
    losses.minimizer_rows, through the same closed-form kernel."""
    return _min_scale(loss, float(s.x @ s.x), s.y) * s.x


def eval_g(params: LearnParams, loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> float:
    """Robust transform g = -a log(exp(-f/a) + b) of one round's loss at theta,
    evaluated stably (see losses._transform). Monotone increasing in f; range
    [-a log(1+b), -a log(b))."""
    return float(_transform(params, eval_f(loss, s, theta)))


def capture_pools(monkeypatch):
    """Keep each expert pool harness.init_pool returns from now on, in order,
    one stacked pool per experts cell; run_episode returns no learner state,
    so the pool is read here."""
    pools = []
    init_pool = harness.init_pool

    def keep(*args, **kwargs):
        pools.append(init_pool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(harness, "init_pool", keep)
    return pools


# --- reference: one seed's expert pool, stepped on its own ---------------------

class SeedPool:
    """One seed's expert pool as one array of its own rows, the form each
    seed's pool had before a cell's pools were stacked: shared rows first,
    one per step size at first (first[i] says where its radii start in
    grid.radii), then the rows split off them. seed_pool_step and
    seed_aggregate_action are the per-seed pool_step and aggregate_action
    the stacked pool must equal, seed by seed, bit for bit."""

    def __init__(self, grid, dim, beta):
        n = grid.step_sizes.size
        self.grid, self.beta = grid, beta
        self.thetas = np.zeros((n, dim))
        self.step_sizes = grid.step_sizes.copy()
        self.radii = np.full(n, math.inf)
        self.log_weights = np.zeros(n)
        self.first = np.zeros(n, dtype=int)


def seed_aggregate_action(pool: SeedPool) -> np.ndarray:
    lw = pool.log_weights
    w = np.exp(lw - lw.max())
    w[:pool.first.size] *= pool.grid.radii.size - pool.first
    w /= w.sum()
    return w @ pool.thetas


def seed_pool_step(pool: SeedPool, s: SideInfo, loss: RoundLoss, params: LearnParams) -> SeedPool:
    f_vals = eval_f_many(loss, s, pool.thetas)
    etas = eta(params, f_vals)
    grads = grad_f_many(loss, s, pool.thetas)
    pool.thetas -= (pool.step_sizes * etas)[:, None] * grads
    norms = project_rows(pool.thetas, pool.radii)
    pool.log_weights -= pool.beta * float(etas.min()) * f_vals
    shared_norms = norms[:pool.first.size]
    over = shared_norms > pool.grid.radii[pool.first]
    if over.any():
        _seed_split(pool, np.flatnonzero(over), shared_norms[over])
    return pool


def _seed_split(pool: SeedPool, shared: np.ndarray, norms: np.ndarray):
    ladder = pool.grid.radii
    start, stop = pool.first[shared], np.searchsorted(ladder, norms)
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


def seed_rows(pool, r: int = 0):
    """Seed r's pool read off a stacked pool, in the SeedPool form: its own
    rows and its shared rows' first, without the padding."""
    n, shared = int(pool.rows[r]), int(np.count_nonzero(pool.first[r] < pool.grid.radii.size))
    view = SeedPool.__new__(SeedPool)
    view.grid, view.beta = pool.grid, pool.beta
    view.thetas, view.step_sizes = pool.thetas[r, :n], pool.step_sizes[r, :n]
    view.radii, view.log_weights = pool.radii[r, :n], pool.log_weights[r, :n]
    view.first = pool.first[r, :shared]
    return view


def golden_minimize(fun, lo, hi, tol=1e-12, iters=200):
    """Plain golden-section minimizer over [lo, hi]; independent of any closed form."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)
