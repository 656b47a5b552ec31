import math
import os
from pathlib import Path

import numpy as np
import pytest

import robust_oco
from robust_oco import harness
from robust_oco import stream as st
from robust_oco.learners import gated_step, project_rows
from robust_oco.losses import (
    EXP_MAX,
    RIDGE,
    LearnParams,
    RoundLoss,
    SideInfo,
    _link,
    _link_coef,
    _link_value,
    _min_scale,
    _transform,
    _value,
    eta,
    eval_f,
    eval_f_rows,
    grad_f_rows,
    growth_constants,
    minimizer_rows,
)


def cli_env(extra=None) -> dict:
    """The environment of a child `python -m robust_oco.cli`: this process's
    without ROBUST_OCO_SEED, importing the package these tests import, then
    extra."""
    env = {name: value for name, value in os.environ.items() if name != "ROBUST_OCO_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(robust_oco.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return {**env, **(extra or {})}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def gate_grid(params: LearnParams) -> np.ndarray:
    """Losses to gate, (11117, 6): log-uniform over f/a in [1e-6, 800], and the
    edges where b exp(f/a) and then exp(f/a) itself overflow, a few ulps either
    side."""
    a = params.a
    rng = np.random.default_rng(17)
    f = a * np.exp(rng.uniform(math.log(1e-6), math.log(800.0), 66_298))
    edges = [a * EXP_MAX, a * (EXP_MAX - math.log(params.b)), a * 1e-300, 0.0]
    f = np.concatenate([f, *(e + np.arange(-50, 51) * math.ulp(e) for e in edges)])
    return np.abs(f).reshape(-1, 6)


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


# --- reference: the gated projected step of many rows -------------------------

def learn_rows(theta: np.ndarray, x: np.ndarray, y: np.ndarray, proj: np.ndarray, f: np.ndarray,
               loss: RoundLoss, params: LearnParams, alpha, radius) -> np.ndarray:
    """learn_step of every row at once, as a new array: the projected step on
    the gated gradient eta(f) grad_f from the actions theta (n, d), the side
    information x (n, d) and y (n,), proj = <x, theta> and the losses f (n,)
    at theta. alpha is one step size or one per row, (n, 1); radius is one
    radius or one per row, (n,), math.inf where unbounded. learners.gated_step
    must equal it bit for bit."""
    g = grad_f_rows(loss, x, y, theta, proj)
    g *= eta(params, f)[:, None]
    new = theta - alpha * g
    if isinstance(radius, np.ndarray) or radius < math.inf:
        project_rows(new, radius, np.vecdot(new, new))   # squared norms as project_ball sums them
    return new


# --- reference: one seed's whole episode stream and its comparators -----------

def episode_stream(generator, T: int, k: int, seed: int):
    """One seeded episode's stream drawn in one block: (the seed's theta*, X,
    y_clean, y_emitted, outlier mask), X of shape (T, d)."""
    stream = st.EpisodeStream(generator, T, [k], seed)
    X, y_clean, [(y_emitted, _)] = stream.draw(T)
    return stream.theta_star, X, y_clean, y_emitted, st.outlier_mask(stream.outliers[0], T)


def reference_accounting(cfg, seed):
    """The episode's full (T, d) clean and emitted comparators, recomputed from
    its stream as rows, the regret statistics read off them, and the gradient
    growth constants (G, L) of the whole emitted stream. f_terms is the loss
    of the magnitudes of the terms f_t(s_t, theta_t*) sums (its link taken
    with every sign aligned): (|y| + |<x, theta*>|)^2 for ridge, 1 + |y <x,
    theta*>| for the hinge, plus the regularizer."""
    _, X, y_clean, y_emitted, is_outlier = episode_stream(cfg.generator, cfg.T, cfg.k, seed)
    comp_clean = minimizer_rows(cfg.loss, X, y_clean)
    comp_emitted = minimizer_rows(cfg.loss, X, y_emitted)
    G, L = growth_constants(cfg.loss, np.einsum("ij,ij->i", X, X), np.linalg.norm(comp_emitted, axis=1))
    if math.isfinite(cfg.radius):
        project_rows(comp_clean, cfg.radius)
        project_rows(comp_emitted, cfg.radius)
    diff = comp_emitted[is_outlier] - comp_clean[is_outlier]
    proj, sq = np.einsum("ij,ij->i", X, comp_clean), np.einsum("ij,ij->i", comp_clean, comp_clean)
    return dict(
        is_outlier=is_outlier,
        comp_clean=comp_clean,
        comp_emitted=comp_emitted,
        v_t=float(np.linalg.norm(np.diff(comp_clean, axis=0), axis=1).sum()),
        comparator_radius=float(np.linalg.norm(comp_clean, axis=1).max()),
        f_at_comparator=eval_f_rows(cfg.loss, X, y_emitted, comp_clean),
        f_terms=_value(cfg.loss, -np.abs(proj), sq, np.abs(y_emitted)),
        delta_s=float(np.linalg.norm(diff, axis=1).max()) if is_outlier.any() else 0.0,
        growth=(float(np.max(G)), float(np.max(L))),
    )


def chunk_round_bytes(config, cells: int, K: int) -> int:
    """The bytes a round adds to a chunk of a pass of that many cells and K
    k's over the config's seeds: its features and cell losses, (R, d + cells),
    a row of the comparators' (rows, R, d) scratch and a row of each of two
    (rows, K, R) arrays of comparator scales."""
    R, dim = len(config.seeds), config.generator.dim
    return 8 * (R * (dim + cells) + R * dim + 2 * K * R)


def force_chunk_rows(monkeypatch, config, cells: int, K: int, rows: int):
    """Make a pass of that many cells and K k's over the config's seeds play
    rows rounds per chunk, by the one budget harness.CHUNK_BYTES."""
    monkeypatch.setattr(harness, "CHUNK_BYTES", rows * chunk_round_bytes(config, cells, K))
    assert harness._chunk_rows(config, cells, K) == rows


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
    u = _link(loss, np.vecdot(s.x, pool.thetas), s.y)
    f_vals = _link_value(loss, u, np.vecdot(pool.thetas, pool.thetas))
    etas = eta(params, f_vals)
    thetas, pool.thetas = pool.thetas, np.empty_like(pool.thetas)
    norms = gated_step(thetas, s.x, _link_coef(loss, u, s.y)[:, None], loss.lam, etas[:, None],
                       pool.step_sizes[:, None], pool.radii, pool.thetas)
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
