import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import SeedPool, capture_pools, seed_aggregate_action, seed_pool_step, seed_rows
from robust_oco import harness
from robust_oco.experts import aggregate_action, beta_default, build_grid, init_pool, pool_step
from robust_oco.learners import LearnerState, learn_step
from robust_oco.losses import (
    HINGE_SVM,
    LearnParams,
    RIDGE,
    RoundLoss,
    SideInfo,
    derive_constants,
    eta,
    eval_f_many,
    grad_f_many,
)


def v(*args):
    return np.array(args, dtype=float)


RIDGE0 = RoundLoss(family=RIDGE, lam=0.0)


def step(pool, s, loss, params):
    """pool_step of a one-seed pool on one SideInfo."""
    return pool_step(pool, s.x[None], np.array([s.y]), loss, params)


# --- reference: the uncompressed pool, one row per logical expert ------------

def entries(grid):
    """Every expert's (step size, radius), in grid order: step-size major."""
    return np.repeat(grid.step_sizes, grid.radii.size), np.tile(grid.radii, grid.step_sizes.size)


class RefPool:
    """Every expert of the grid as its own row, in grid order."""

    def __init__(self, grid, dim, beta):
        self.grid, self.beta = grid, beta
        self.thetas = np.zeros((grid.n, dim))
        self.step_sizes, self.radii = entries(grid)
        self.log_weights = np.zeros(grid.n)


def ref_aggregate_action(pool):
    w = np.exp(pool.log_weights - pool.log_weights.max())
    w /= w.sum()
    return w @ pool.thetas


def ref_pool_step(pool, s, loss, params):
    f_vals = eval_f_many(loss, s, pool.thetas)
    etas = eta(params, f_vals)
    grads = grad_f_many(loss, s, pool.thetas)
    pool.thetas -= (pool.step_sizes * etas)[:, None] * grads
    norms = np.sqrt(np.einsum("ij,ij->i", pool.thetas, pool.thetas))
    scale = np.where(norms > pool.radii, pool.radii / np.maximum(norms, 1e-300), 1.0)
    pool.thetas *= scale[:, None]
    pool.log_weights -= pool.beta * float(etas.min()) * f_vals
    return pool


def row_counts(pool):
    """Experts per row of a SeedPool (or a seed_rows view): grid.radii.size -
    first[i] on shared row i, one on a split row."""
    split = len(pool.thetas) - pool.first.size
    return np.concatenate([pool.grid.radii.size - pool.first, np.ones(split, dtype=int)])


def expand(pool):
    """Each grid entry's action and log-weight, in grid order, read off the
    row that holds it: its own row once split, else its step size's shared
    row. A stacked pool is read as its first seed's."""
    if not isinstance(pool, SeedPool):
        pool = seed_rows(pool)
    n_shared = pool.first.size
    assert row_counts(pool).sum() == pool.grid.n
    assert np.all(np.isinf(pool.radii[:n_shared])) and np.all(np.isfinite(pool.radii[n_shared:]))
    own = {(a, d): r for r, (a, d) in enumerate(zip(pool.step_sizes, pool.radii)) if r >= n_shared}
    shared = {pool.step_sizes[r]: r for r in range(n_shared)}
    rows = []
    for a, d in zip(*entries(pool.grid)):
        r = own.get((a, d))
        if r is None:
            r = shared[a]
            assert d >= pool.grid.radii[pool.first[r]], (a, d)
        rows.append(r)
    return pool.thetas[rows], pool.log_weights[rows]


def test_build_grid_example():
    grid = build_grid(4.0, 1.0, 4)
    assert grid.step_sizes.tolist() == [1.0, 2.0]
    assert grid.radii.tolist() == [0.5, 1.0, 2.0, 4.0]
    assert grid.n == 8
    assert grid.n <= 4 * math.log2(4.0)


def test_build_grid_edges():
    assert build_grid(2.0, 1.0, 16).step_sizes.size == 1
    assert build_grid(4.0, 1.0, 1).radii.size == 1
    with pytest.raises(ValueError):
        build_grid(1.5, 1.0, 4)
    with pytest.raises(ValueError):
        build_grid(4.0, 0.0, 4)


def test_grid_size_bound():
    # N <= T ceil(log2 A_max): ceil(log2 A_max) step sizes times at most T
    # radii (huge radii collapse to one unbounded expert once 2^j/T leaves
    # float range). At the default A_max = max(sqrt T, 2) the looser
    # T log2(A_max) fails for 5 <= T <= 1000, e.g. N = 600 > 542 at T = 150.
    for T in (20, 150, 500, 2000, 10 ** 4):
        a_max = max(math.sqrt(T), 2.0)
        assert build_grid(a_max, 1.0, T).n <= T * math.ceil(math.log2(a_max))
    assert build_grid(math.sqrt(150), 1.0, 150).n > 150 * math.log2(math.sqrt(150))
    for T, a_max in ((4, 4.0), (64, 8.0), (128, 2.0), (500, 16.0), (2000, 45.0)):
        grid = build_grid(a_max, 1.0, T)
        assert grid.n <= T * math.ceil(math.log2(a_max))


def test_grid_radii_capped_and_deduplicated():
    grid = build_grid(8.0, 2.0, 6)
    assert grid.radii.tolist() == [2.0 * 2.0 ** j / 6.0 for j in range(1, 7)]
    big = build_grid(4.0, 1.0, 3000)
    assert big.radii[-1] == math.inf and np.all(np.isfinite(big.radii[:-1]))


@pytest.mark.parametrize("T", [1, 6, 1023, 1024, 1025, 2000])
@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
def test_radius_ladder_matches_per_j_formula(T, epsilon):
    # min(eps 2^j, eps 2^T)/T for j = 1..T, one j at a time in Python floats,
    # where 2.0 ** j raises from j = 1024 on and eps 2^j overflows to inf
    def radius(j):
        try:
            return epsilon * 2.0 ** j / T
        except OverflowError:
            return math.inf

    expected = list(dict.fromkeys(min(radius(j), radius(T)) for j in range(1, T + 1)))
    assert build_grid(4.0, epsilon, T).radii.tolist() == expected


def test_beta_default():
    assert beta_default(8, 100, 1.0) == pytest.approx(0.4078667960675236, rel=1e-12)
    assert beta_default(8, 100, 2.0) == pytest.approx(0.4078667960675236 / 2, rel=1e-12)
    assert beta_default(8, 400, 1.0) == pytest.approx(0.4078667960675236 / 2, rel=1e-12)
    with pytest.raises(ValueError):
        beta_default(1, 100, 1.0)


def _pool2(thetas, log_weights, beta=1.0):
    # two unbounded experts with different step sizes: one shared row each
    grid = replace(build_grid(4.0, 1.0, 4), step_sizes=v(0.5, 0.25), radii=v(math.inf))
    pool = init_pool(grid, thetas.shape[1], beta)
    pool.thetas[0] = thetas
    pool.log_weights[0] = log_weights
    return pool


def test_aggregate_action_examples():
    pool = _pool2(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    np.testing.assert_allclose(aggregate_action(pool), [v(0.5, 0.5)])

    pool = _pool2(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([50.0, 0.0]))
    np.testing.assert_allclose(aggregate_action(pool), [v(1.0, 0.0)], atol=1e-15)

    pool = _pool2(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, -math.log(3.0)]))
    np.testing.assert_allclose(aggregate_action(pool), [v(0.75, 0.0)], rtol=1e-12)


def test_pool_step_example_weight_deltas():
    # experts at f-values {1, 2} with a=b=1, beta=1:
    # eta_min = eta(2) = 1/(1+e^2); deltas {-0.11920292, -0.23840584}
    pool = _pool2(np.array([[1.0, 0.0], [math.sqrt(2.0), 0.0]]), np.zeros(2))
    s = SideInfo(v(1, 0), 0.0)
    step(pool, s, RIDGE0, LearnParams(1.0, 1.0))
    np.testing.assert_allclose(
        expand(pool)[1], [-0.11920292202211755, -0.23840584404423510], rtol=1e-12)


def test_pool_step_zero_loss_keeps_weights():
    pool = _pool2(np.zeros((2, 2)), np.zeros(2))
    s = SideInfo(v(1, 0), 0.0)  # every expert at the common minimizer, f = 0
    step(pool, s, RIDGE0, LearnParams(1.0, 1.0))
    np.testing.assert_array_equal(expand(pool)[1], np.zeros(2))


def test_pool_step_outlier_damping():
    # one expert sees a huge loss -> eta_min ~ 0 -> all weight updates ~ 0
    pool = _pool2(np.array([[0.0, 0.0], [1e6, 0.0]]), np.zeros(2))
    s = SideInfo(v(1, 0), 0.0)
    step(pool, s, RIDGE0, LearnParams(1.0, 1.0))
    log_weights = expand(pool)[1]
    assert np.all(log_weights > -1e-9)
    assert np.all(np.isfinite(log_weights))


def test_weight_monotonicity_and_bounded_decay(rng=np.random.default_rng(7)):
    params = LearnParams(2.0, 0.5)
    nu = derive_constants(params, G=0, L=0, m=1.0).nu
    beta = 0.3
    grid = build_grid(8.0, 1.0, 32)
    pool = init_pool(grid, 2, beta)
    loss = RoundLoss(family=RIDGE, lam=1e-2)
    prev = expand(pool)[1]
    for _ in range(200):
        s = SideInfo(rng.normal(0, 3, 2), float(rng.normal(0, 5)))
        step(pool, s, loss, params)
        log_weights = expand(pool)[1]
        delta = prev - log_weights
        assert np.all(delta >= -1e-15)          # nonincreasing log-weights
        assert np.all(delta <= beta * nu + 1e-9)  # decay capped by beta * nu
        prev = log_weights
    assert np.all(np.isfinite(prev))


def test_aggregate_stays_in_expert_hull(rng=np.random.default_rng(11)):
    params = LearnParams(1e4, 10.0)
    grid = build_grid(8.0, 1.0, 64)
    pool = init_pool(grid, 2, 0.05)
    loss = RoundLoss(family=RIDGE, lam=1e-4)
    d_max = grid.radii[np.isfinite(grid.radii)].max()
    for _ in range(100):
        s = SideInfo(rng.normal(0, 1, 2), float(rng.normal()))
        step(pool, s, loss, params)
        theta, = aggregate_action(pool)
        assert np.linalg.norm(theta) <= max(np.linalg.norm(pool.thetas[0], axis=1).max(), d_max) + 1e-12


def test_pool_matches_independent_learn_steps(rng=np.random.default_rng(3)):
    # compressed pool advance == stepping each expert's LearnerState separately
    params = LearnParams(2.0, 1.0)
    grid = build_grid(4.0, 1.0, 8)
    pool = init_pool(grid, 3, 0.21)
    loss = RoundLoss(family=RIDGE, lam=0.3)
    states = [LearnerState(theta=np.zeros(3), step_size=a, radius=d) for a, d in zip(*entries(grid))]
    for _ in range(40):
        s = SideInfo(rng.normal(0, 1, 3), float(rng.normal()))
        step(pool, s, loss, params)
        for st in states:
            learn_step(st, s, loss, params)
        thetas = expand(pool)[0]
        for i, st in enumerate(states):
            # every row takes learners.gated_step, which is learn_step by rows, bit for bit
            np.testing.assert_array_equal(thetas[i], st.theta)
    seed = seed_rows(pool)
    assert len(seed.thetas) < grid.n   # some experts still share a row
    assert len(seed.thetas) > seed.first.size   # and some have split off


def test_several_members_split_in_one_round():
    # T=8 radii are 0.25, 0.5, ..., 32 (no unbounded expert); one ridge round from
    # the origin moves the step-0.71 row to norm ~20 (7 members split, 32 stays) and
    # the step-1.41 row to norm ~40 (all 8 split, its shared row is dropped)
    grid = build_grid(4.0, 1.0, 8)
    params = LearnParams(1e6, 1.0)
    pool, ref = init_pool(grid, 2, 0.5), RefPool(grid, 2, 0.5)
    s = SideInfo(v(7.0710678, 0.0), 4.0)
    step(pool, s, RIDGE0, params)
    ref_pool_step(ref, s, RIDGE0, params)
    seed = seed_rows(pool)
    assert seed.first.tolist() == [7]   # one shared row left, holding radii[7:]
    assert pool.first.tolist() == [[7, grid.radii.size]]   # the dropped shared row's slot is padding
    assert grid.radii[seed.first].tolist() == [32.0]
    assert row_counts(seed).tolist() == [1] * 16
    thetas, log_weights = expand(pool)
    np.testing.assert_array_equal(thetas, ref.thetas)
    np.testing.assert_array_equal(log_weights, ref.log_weights)
    np.testing.assert_allclose(aggregate_action(pool)[0], ref_aggregate_action(ref), rtol=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = SideInfo(rng.normal(0, 3, 2), float(rng.normal(0, 30)))
        step(pool, s, RIDGE0, params)
        ref_pool_step(ref, s, RIDGE0, params)
        thetas, log_weights = expand(pool)
        np.testing.assert_allclose(thetas, ref.thetas, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(log_weights, ref.log_weights, rtol=1e-12)


@pytest.mark.parametrize("seed", [3001, 3002, 3003])
def test_compressed_pool_matches_uncompressed_regret(seed, monkeypatch):
    # svm preset, T=2000: 6144 experts over 6 step sizes and 1024 radii
    config = harness.preset_config("svm", T=2000, seeds=[seed], learner=harness.EXPERTS, k=44)
    pools = capture_pools(monkeypatch)
    series = harness.clean_dynamic_regret(harness.run_episode(config, seed)).series
    assert pools[0].grid.n == 6144 and pools[0].thetas.shape[1] < 100

    # the uncompressed pool behind the harness's stacked-pool calls, for a cell of one seed
    def ref_init(grid, dim, beta, pools):
        assert pools == 1
        return RefPool(grid, dim, beta)

    def ref_step(pool, X, Y, loss, params):
        return ref_pool_step(pool, SideInfo(x=X[0], y=float(Y[0])), loss, params)

    monkeypatch.setattr(harness, "init_pool", ref_init)
    monkeypatch.setattr(harness, "pool_step", ref_step)
    monkeypatch.setattr(harness, "aggregate_action", lambda pool: ref_aggregate_action(pool)[None])
    ref_pools = capture_pools(monkeypatch)
    ref_trace = harness.run_episode(config, seed)
    assert len(ref_pools) == 1 and isinstance(ref_pools[0], RefPool)
    np.testing.assert_allclose(series, harness.clean_dynamic_regret(ref_trace).series, rtol=1e-9, atol=0)


def test_ridge_full_scale_pool_is_nine_rows():
    config = harness.preset_config("ridge", seeds=[1], learner=harness.EXPERTS)
    pool = harness._expert_pool(config)
    assert config.T == 10 ** 5
    assert pool.grid.n == 9216
    assert pool.thetas.shape == (1, 9, 100)
    assert row_counts(seed_rows(pool)).tolist() == [1024] * 9
    assert pool.beta == beta_default(9216, 10 ** 5, config.params.nu)


def test_pool_determinism(rng=None):
    params = LearnParams(1e4, 10.0)

    def run():
        g = np.random.default_rng(42)
        grid = build_grid(8.0, 1.0, 50)
        pool = init_pool(grid, 2, 0.1)
        loss = RoundLoss(family=RIDGE, lam=1e-4)
        for _ in range(50):
            s = SideInfo(g.normal(0, 1, 2), float(g.normal()))
            step(pool, s, loss, params)
        return pool.thetas.copy(), pool.log_weights.copy()

    t1, w1 = run()
    t2, w2 = run()
    assert np.array_equal(t1, t2) and np.array_equal(w1, w2)


def test_seeds_pools_share_one_grid_and_leave_it_unchanged(monkeypatch):
    config = harness.preset_config("svm", T=300, seeds=[1, 2, 3], learner=harness.EXPERTS, k=17)
    pools = capture_pools(monkeypatch)
    harness.run_cell(config)
    grid, fresh = pools[0].grid, build_grid(math.sqrt(300), 1.0, 300)
    assert len(pools) == 1 and pools[0].thetas.shape[0] == 3   # one stack holds the three seeds' pools
    seeds = [seed_rows(pools[0], r) for r in range(3)]
    assert all(seed.grid is grid for seed in seeds)
    assert all(len(seed.thetas) > seed.first.size for seed in seeds)   # every pool has split rows
    np.testing.assert_array_equal(grid.step_sizes, fresh.step_sizes)
    np.testing.assert_array_equal(grid.radii, fresh.radii)


# --- the stacked pool: each seed is its own pool, bit for bit ------------------

def test_stacked_pool_equals_each_seeds_own_pool():
    # three seeds stepped on rounds of their own split at different rounds, and
    # drop emptied shared rows (no unbounded radius at T = 8) at different
    # rounds, so the stack pads them differently; each stays what its own
    # pool is, and the stack holds just the largest seed's row count
    grid = build_grid(4.0, 1.0, 8)
    loss, params = RoundLoss(family=RIDGE, lam=0.01), LearnParams(1e6, 1.0)
    pool, refs = init_pool(grid, 2, 0.5, pools=3), [SeedPool(grid, 2, 0.5) for _ in range(3)]
    rng = np.random.default_rng(8)
    padded = dropped = 0
    for _ in range(60):
        X = rng.normal(0, 1, (3, 2)) * v(0.1, 1.0, 3.0)[:, None]
        Y = rng.normal(0, 1, 3) * v(0.1, 3.0, 30.0)
        pool_step(pool, X, Y, loss, params)
        for r, ref in enumerate(refs):
            seed_pool_step(ref, SideInfo(x=X[r], y=float(Y[r])), loss, params)
        actions = aggregate_action(pool)
        assert pool.thetas.shape[1] == pool.rows.max()
        padded += int(pool.rows.min() < pool.rows.max())
        dropped += int(any(ref.first.size < grid.step_sizes.size for ref in refs))
        for r, ref in enumerate(refs):
            seed = seed_rows(pool, r)
            for name in ("thetas", "step_sizes", "radii", "log_weights", "first"):
                np.testing.assert_array_equal(getattr(seed, name), getattr(ref, name), err_msg=name)
            np.testing.assert_array_equal(actions[r], seed_aggregate_action(ref))
    assert padded and dropped


def test_padded_row_never_sets_eta_min():
    # hinge: seed 1's real rows all have f < 1 while a padded row, at the
    # origin, has f = 1 and so the smallest gate; seed 1's weights must decay
    # as its own unpadded pool's do
    grid = build_grid(4.0, 1.0, 8)
    loss, params = RoundLoss(family=HINGE_SVM, lam=1e-3), LearnParams(1.0, 1.0)
    pool, ref = init_pool(grid, 2, 0.5, pools=2), SeedPool(grid, 2, 0.5)
    X, Y = np.array([[100.0, 0.0], [0.01, 0.0]]), v(1.0, 1.0)
    pool_step(pool, X, Y, loss, params)   # seed 0 splits, seed 1 does not
    seed_pool_step(ref, SideInfo(x=X[1], y=1.0), loss, params)
    assert pool.rows[1] < pool.rows[0]
    x = v(1.0, 0.0)
    f_real = eval_f_many(loss, SideInfo(x=x, y=1.0), ref.thetas)
    assert np.all(f_real < 1.0) and eta(params, f_real).min() > eta(params, 1.0)
    pool_step(pool, np.stack([x, x]), Y, loss, params)
    seed_pool_step(ref, SideInfo(x=x, y=1.0), loss, params)
    np.testing.assert_array_equal(seed_rows(pool, 1).log_weights, ref.log_weights)


@pytest.mark.parametrize("family, T, k", [("svm", 300, 17), ("ridge", 100, 10)])
def test_stacked_seeds_equal_their_own_episodes(family, T, k, monkeypatch):
    # the seeds' pools end with different row counts, so the stack pads; each
    # seed's episode is still what its pool gives alone, bit for bit
    seeds = [1, 2, 3]
    config = harness.preset_config(family, T=T, seeds=seeds, learner=harness.EXPERTS, k=k)
    pools = capture_pools(monkeypatch)
    traces = harness.run_episodes(config)
    rows = pools[0].rows.tolist()
    assert len(set(rows)) > 1 and pools[0].thetas.shape[1] == max(rows)
    for seed, trace in zip(seeds, traces):
        alone = harness.run_episode(config, seed)
        np.testing.assert_array_equal(trace.f_emitted, alone.f_emitted)
        np.testing.assert_array_equal(trace.theta, alone.theta)


def test_one_pool_step_per_round_for_all_seeds(monkeypatch):
    config = harness.preset_config("svm", T=60, seeds=[1, 2, 3], learner=harness.EXPERTS, k=7)
    calls, pool_step = [], harness.pool_step

    def counted(pool, X, Y, loss, params):
        calls.append((X.shape, Y.shape))
        return pool_step(pool, X, Y, loss, params)

    monkeypatch.setattr(harness, "pool_step", counted)
    harness.run_cell(config)
    assert calls == [((3, 2), (3,))] * (config.T - 1)   # no step after the action of round T
