import math

import numpy as np
import pytest

from robust_oco.experts import aggregate_action, beta_default, build_grid, init_pool, pool_step
from robust_oco.learners import LearnerState, learn_step
from robust_oco.losses import LearnParams, RIDGE, RoundLoss, SideInfo, derive_constants


def v(*args):
    return np.array(args, dtype=float)


RIDGE0 = RoundLoss(family=RIDGE, lam=0.0)


def test_build_grid_example():
    grid = build_grid(4.0, 1.0, 4)
    alphas = sorted(set(a for a, _ in grid.entries))
    radii = sorted(set(d for _, d in grid.entries))
    assert alphas == [1.0, 2.0]
    assert radii == [0.5, 1.0, 2.0, 4.0]
    assert grid.n == 8
    assert grid.n <= 4 * math.log2(4.0)


def test_build_grid_edges():
    assert len(set(a for a, _ in build_grid(2.0, 1.0, 16).entries)) == 1
    assert len(set(d for _, d in build_grid(4.0, 1.0, 1).entries)) == 1
    with pytest.raises(ValueError):
        build_grid(1.5, 1.0, 4)
    with pytest.raises(ValueError):
        build_grid(4.0, 0.0, 4)


def test_grid_size_bound():
    # N <= T log2(A_max) across tested configurations (huge radii collapse to
    # one unbounded expert once 2^j/T leaves float range)
    for T, a_max in ((4, 4.0), (64, 8.0), (128, 2.0), (500, 16.0), (2000, 45.0)):
        grid = build_grid(a_max, 1.0, T)
        assert grid.n <= T * math.log2(a_max)


def test_grid_radii_capped_and_deduplicated():
    grid = build_grid(8.0, 2.0, 6)
    radii = sorted(set(d for _, d in grid.entries))
    assert radii == [2.0 * 2.0 ** j / 6.0 for j in range(1, 7)]
    big = build_grid(4.0, 1.0, 3000)
    radii = [d for _, d in big.entries]
    assert math.inf in radii
    assert len([d for d in set(radii) if d == math.inf]) == 1


def test_beta_default():
    assert beta_default(8, 100, 1.0) == pytest.approx(0.4078667960675236, rel=1e-12)
    assert beta_default(8, 100, 2.0) == pytest.approx(0.4078667960675236 / 2, rel=1e-12)
    assert beta_default(8, 400, 1.0) == pytest.approx(0.4078667960675236 / 2, rel=1e-12)
    with pytest.raises(ValueError):
        beta_default(1, 100, 1.0)


def _pool2(thetas, log_weights, beta=1.0):
    grid = build_grid(4.0, 1.0, 4)
    grid.entries = [(0.5, math.inf), (0.5, math.inf)]
    pool = init_pool(grid, thetas.shape[1], beta)
    pool.thetas[:] = thetas
    pool.log_weights[:] = log_weights
    return pool


def test_aggregate_action_examples():
    pool = _pool2(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    np.testing.assert_allclose(aggregate_action(pool), v(0.5, 0.5))

    pool = _pool2(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([50.0, 0.0]))
    np.testing.assert_allclose(aggregate_action(pool), v(1.0, 0.0), atol=1e-15)

    pool = _pool2(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, -math.log(3.0)]))
    np.testing.assert_allclose(aggregate_action(pool), v(0.75, 0.0), rtol=1e-12)


def test_pool_step_example_weight_deltas():
    # experts at f-values {1, 2} with a=b=1, beta=1:
    # eta_min = eta(2) = 1/(1+e^2); deltas {-0.11920292, -0.23840584}
    pool = _pool2(np.array([[1.0, 0.0], [math.sqrt(2.0), 0.0]]), np.zeros(2))
    s = SideInfo(v(1, 0), 0.0)
    pool_step(pool, s, RIDGE0, LearnParams(1.0, 1.0))
    np.testing.assert_allclose(
        pool.log_weights, [-0.11920292202211755, -0.23840584404423510], rtol=1e-12)


def test_pool_step_zero_loss_keeps_weights():
    pool = _pool2(np.zeros((2, 2)), np.zeros(2))
    s = SideInfo(v(1, 0), 0.0)  # every expert at the common minimizer, f = 0
    pool_step(pool, s, RIDGE0, LearnParams(1.0, 1.0))
    np.testing.assert_array_equal(pool.log_weights, np.zeros(2))


def test_pool_step_outlier_damping():
    # one expert sees a huge loss -> eta_min ~ 0 -> all weight updates ~ 0
    pool = _pool2(np.array([[0.0, 0.0], [1e6, 0.0]]), np.zeros(2))
    s = SideInfo(v(1, 0), 0.0)
    pool_step(pool, s, RIDGE0, LearnParams(1.0, 1.0))
    assert np.all(pool.log_weights > -1e-9)
    assert np.all(np.isfinite(pool.log_weights))


def test_weight_monotonicity_and_bounded_decay(rng=np.random.default_rng(7)):
    params = LearnParams(2.0, 0.5)
    nu = derive_constants(params, G=0, L=0, m=1.0).nu
    beta = 0.3
    grid = build_grid(8.0, 1.0, 32)
    pool = init_pool(grid, 2, beta)
    loss = RoundLoss(family=RIDGE, lam=1e-2)
    prev = pool.log_weights.copy()
    for _ in range(200):
        s = SideInfo(rng.normal(0, 3, 2), float(rng.normal(0, 5)))
        pool_step(pool, s, loss, params)
        delta = prev - pool.log_weights
        assert np.all(delta >= -1e-15)          # nonincreasing log-weights
        assert np.all(delta <= beta * nu + 1e-9)  # decay capped by beta * nu
        prev = pool.log_weights.copy()
    assert np.all(np.isfinite(pool.log_weights))


def test_aggregate_stays_in_expert_hull(rng=np.random.default_rng(11)):
    params = LearnParams(1e4, 10.0)
    grid = build_grid(8.0, 1.0, 64)
    pool = init_pool(grid, 2, 0.05)
    loss = RoundLoss(family=RIDGE, lam=1e-4)
    d_max = max(d for _, d in grid.entries if math.isfinite(d))
    for _ in range(100):
        s = SideInfo(rng.normal(0, 1, 2), float(rng.normal()))
        pool_step(pool, s, loss, params)
        theta = aggregate_action(pool)
        assert np.linalg.norm(theta) <= max(np.linalg.norm(pool.thetas, axis=1).max(), d_max) + 1e-12


def test_pool_matches_independent_learn_steps(rng=np.random.default_rng(3)):
    # columnar pool advance == stepping each expert's LearnerState separately
    params = LearnParams(2.0, 1.0)
    grid = build_grid(4.0, 1.0, 8)
    pool = init_pool(grid, 3, 0.21)
    loss = RoundLoss(family=RIDGE, lam=0.3)
    states = [LearnerState(theta=np.zeros(3), step_size=a, radius=d) for a, d in grid.entries]
    for _ in range(40):
        s = SideInfo(rng.normal(0, 1, 3), float(rng.normal()))
        pool_step(pool, s, loss, params)
        for st in states:
            learn_step(st, s, loss, params)
        for i, st in enumerate(states):
            # accumulated dot-product reassociation drift only
            np.testing.assert_allclose(pool.thetas[i], st.theta, rtol=1e-9, atol=1e-12)


def test_pool_determinism(rng=None):
    params = LearnParams(1e4, 10.0)

    def run():
        g = np.random.default_rng(42)
        grid = build_grid(8.0, 1.0, 50)
        pool = init_pool(grid, 2, 0.1)
        loss = RoundLoss(family=RIDGE, lam=1e-4)
        for _ in range(50):
            s = SideInfo(g.normal(0, 1, 2), float(g.normal()))
            pool_step(pool, s, loss, params)
        return pool.thetas.copy(), pool.log_weights.copy()

    t1, w1 = run()
    t2, w2 = run()
    assert np.array_equal(t1, t2) and np.array_equal(w1, w2)
