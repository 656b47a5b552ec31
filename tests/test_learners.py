import math

import numpy as np
import pytest

from conftest import minimizer_f, random_instance
from robust_oco.learners import (
    EXP_MAX,
    LearnerState,
    gate_rows,
    learn_rows,
    learn_step,
    ogd_step,
    project_ball,
    theoretical_stepsize,
    topk_filter_step,
)
from robust_oco.losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    RoundLoss,
    SideInfo,
    derive_constants,
    eta,
    eval_f,
)

RIDGE0 = RoundLoss(family=RIDGE, lam=0.0)


def v(*args):
    return np.array(args, dtype=float)


def test_project_ball_examples():
    np.testing.assert_allclose(project_ball(v(3, 4), 5.0), v(3, 4))
    np.testing.assert_allclose(project_ball(v(3, 4), 1.0), v(0.6, 0.8))
    np.testing.assert_allclose(project_ball(v(3, 4), math.inf), v(3, 4))
    with pytest.raises(ValueError):
        project_ball(v(1, 0), 0.0)


def test_ogd_step_examples():
    loss = RoundLoss(RIDGE, 2.0)
    state = LearnerState(theta=v(1, 0), step_size=0.5)
    ogd_step(state, SideInfo(v(1, 0), 2.0), loss)
    np.testing.assert_allclose(state.theta, v(1, 0))  # stationary point

    state = LearnerState(theta=v(1, 0), step_size=0.5)
    ogd_step(state, SideInfo(v(1, 0), 0.0), RIDGE0)
    np.testing.assert_allclose(state.theta, v(0, 0))

    state = LearnerState(theta=v(1, 0), step_size=0.5, radius=0.5)
    ogd_step(state, SideInfo(v(1, 0), 0.0), RIDGE0)
    np.testing.assert_allclose(state.theta, v(0, 0))  # already inside after step


def test_learn_step_examples():
    params = LearnParams(1.0, 1.0)
    loss = RoundLoss(RIDGE, 2.0)
    state = LearnerState(theta=v(1, 0), step_size=0.5)
    learn_step(state, SideInfo(v(1, 0), 2.0), loss, params)
    np.testing.assert_allclose(state.theta, v(1, 0))  # grad_g = eta grad_f = 0

    state = LearnerState(theta=v(1, 0), step_size=0.5)
    learn_step(state, SideInfo(v(1, 0), 0.0), RIDGE0, params)
    np.testing.assert_allclose(state.theta, v(0.7310585786300049, 0.0), rtol=1e-12)

    # wildly corrupted round: f huge, eta saturates, theta barely moves
    state = LearnerState(theta=v(1, 0), step_size=0.5)
    learn_step(state, SideInfo(v(1, 0), 1e8), RIDGE0, params)
    np.testing.assert_allclose(state.theta, v(1, 0))


def test_learn_update_magnitude_bounded_by_alpha_psi(rng):
    # ||theta' - theta|| <= alpha * psi, including wild rounds
    params = LearnParams(2.0, 0.5)
    alpha = 0.3
    for family in (RIDGE, HINGE_SVM):
        for _ in range(300):
            loss, s = random_instance(rng, family)
            if family == RIDGE:
                G, L = 0.0, loss.lam + 2.0 * float(s.x @ s.x)
            else:
                omega = minimizer_f(loss, s)
                G = loss.lam * float(np.linalg.norm(omega)) + float(np.linalg.norm(s.x))
                L = loss.lam
            psi = derive_constants(params, G=G, L=L, m=loss.lam).psi
            r = math.exp(rng.uniform(math.log(1e-2), math.log(1e5)))
            u = rng.standard_normal(s.x.shape)
            theta0 = minimizer_f(loss, s) + r * u / np.linalg.norm(u)
            state = LearnerState(theta=theta0.copy(), step_size=alpha)
            learn_step(state, s, loss, params)
            assert np.linalg.norm(state.theta - theta0) <= alpha * psi + 1e-9


def test_learn_matches_ogd_for_vanishing_b(rng):
    # b -> 0 makes eta -> 1; relative agreement 1e-6 at b = 1e-12
    params = LearnParams(1.0, 1e-12)
    for _ in range(50):
        loss, s = random_instance(rng, RIDGE)
        theta0 = rng.normal(0, 1, s.x.shape)
        if eval_f(loss, s, theta0) > 10.0:  # keep b e^{f/a} << 1e-6
            continue
        s1 = LearnerState(theta=theta0.copy(), step_size=0.1)
        s2 = LearnerState(theta=theta0.copy(), step_size=0.1)
        ogd_step(s1, s, loss)
        learn_step(s2, s, loss, params)
        np.testing.assert_allclose(s2.theta, s1.theta, rtol=1e-6, atol=1e-9)


def test_radius_invariant_after_every_step(rng):
    params = LearnParams(1.0, 1.0)
    for family in (RIDGE, HINGE_SVM):
        loss, s = random_instance(rng, family)
        state = LearnerState(theta=np.zeros(s.x.shape), step_size=1.0, radius=0.7)
        for i in range(50):
            loss, s = random_instance(rng, family, max_dim=1)
            s = SideInfo(x=np.resize(s.x, state.theta.shape), y=s.y)
            if i % 3 == 0:
                ogd_step(state, s, loss)
            elif i % 3 == 1:
                learn_step(state, s, loss, params)
            else:
                topk_filter_step(state, s, loss, 2)
            assert np.linalg.norm(state.theta) <= 0.7 + 1e-12


@pytest.mark.parametrize("family", [RIDGE, HINGE_SVM])
def test_learn_rows_is_learn_step_by_rows(rng, family):
    """The row step the runs take equals learn_step on each row, bit for bit,
    with a step size and a radius per row, finite or not."""
    params, loss = LearnParams(2.0, 0.5), RoundLoss(family, 0.3)
    n, d = 64, 3
    X = rng.normal(0, 1.5, (n, d))
    y = rng.normal(0, 2, n) if family == RIDGE else rng.choice([-1.0, 1.0], n)
    theta = rng.normal(0, 3, (n, d))
    alpha = rng.uniform(0.01, 2.0, (n, 1))
    radius = np.where(rng.uniform(size=n) < 0.5, math.inf, rng.uniform(0.1, 5.0, n))
    proj = np.vecdot(X, theta)
    f = np.array([eval_f(loss, SideInfo(X[i], float(y[i])), theta[i]) for i in range(n)])
    rows = learn_rows(theta, X, y, proj, f, loss, params, alpha, radius)
    projected = 0
    for i in range(n):
        state = LearnerState(theta=theta[i].copy(), step_size=float(alpha[i, 0]), radius=float(radius[i]))
        ref = learn_step(state, SideInfo(X[i], float(y[i])), loss, params).theta
        np.testing.assert_array_equal(rows[i], ref)
        projected += bool(np.linalg.norm(ref) == pytest.approx(radius[i]))
    assert projected > 0   # some rows leave their ball and are projected back


@pytest.mark.parametrize("b", [10.0, 0.5])   # below b = 1, b exp(f/a) stays finite up to exp's own overflow
@pytest.mark.parametrize("a", [1e4, 10.0, 0.01])
def test_gate_rows_is_eta_by_loss(a, b):
    # one libm exp per loss, as eta takes it on a float, bit for bit: log-uniform
    # losses over f/a in [1e-6, 800], and the edges where b exp(f/a) and then
    # exp(f/a) itself overflow, a few ulps either side
    params = LearnParams(a=a, b=b)
    rng = np.random.default_rng(17)
    f = a * np.exp(rng.uniform(math.log(1e-6), math.log(800.0), 66_298))
    edges = [a * EXP_MAX, a * (EXP_MAX - math.log(params.b)), a * 1e-300, 0.0]
    f = np.concatenate([f, *(e + np.arange(-50, 51) * math.ulp(e) for e in edges)])
    f = np.abs(f).reshape(-1, 6)   # 6 x 11117 losses
    gates = gate_rows(params, f)
    assert gates.shape == f.shape
    expected = np.array([eta(params, v) for v in f.ravel().tolist()]).reshape(f.shape)
    np.testing.assert_array_equal(gates.view(np.uint64), expected.view(np.uint64))
    assert (gates == 0.0).any() and (gates == 1.0 / (1.0 + params.b)).any()
    for negative in (-1e-300, -5e-324):   # the second divides to -0.0 at a > 1
        with pytest.raises(ValueError, match="loss values must be non-negative"):
            gate_rows(params, np.array([[1.0, negative]]))
    np.testing.assert_array_equal(gate_rows(params, np.array([-0.0, 0.0])), 1.0 / (1.0 + params.b))


def test_topk_examples():
    # k = 0 degenerates to plain OGD, never filtered
    state = LearnerState(theta=v(1, 0), step_size=0.5)
    state, filtered = topk_filter_step(state, SideInfo(v(1, 0), 0.0), RIDGE0, 0)
    assert not filtered
    np.testing.assert_allclose(state.theta, v(0, 0))

    # buffer {5}, incoming norm 3 (< 2*5): update, buffer unchanged
    state = LearnerState(theta=v(1.5, 0), step_size=0.1, top_norms=[5.0])
    state, filtered = topk_filter_step(state, SideInfo(v(1, 0), 0.0), RIDGE0, 1)
    assert not filtered and state.top_norms == [5.0]
    np.testing.assert_allclose(state.theta, v(1.5 - 0.1 * 3.0, 0.0))

    # buffer {5}, incoming norm 12 (>= 10): filtered, buffer becomes {12}
    state = LearnerState(theta=v(6, 0), step_size=0.1, top_norms=[5.0])
    state, filtered = topk_filter_step(state, SideInfo(v(1, 0), 0.0), RIDGE0, 1)
    assert filtered and state.top_norms == [12.0]
    np.testing.assert_allclose(state.theta, v(6, 0))


def test_topk_warmup_and_tie():
    # warm-up: underfull buffer filters and inserts
    state = LearnerState(theta=v(1.5, 0), step_size=0.1)
    state, filtered = topk_filter_step(state, SideInfo(v(1, 0), 0.0), RIDGE0, 2)
    assert filtered and state.top_norms == [3.0]
    np.testing.assert_allclose(state.theta, v(1.5, 0))
    # tie at exactly 2*min(buffer) filters (strict inequality rule)
    state = LearnerState(theta=v(3, 0), step_size=0.1, top_norms=[3.0])
    state, filtered = topk_filter_step(state, SideInfo(v(1, 0), 0.0), RIDGE0, 1)
    assert filtered and state.top_norms == [6.0]


def test_topk_zero_budget_bitwise_matches_ogd(rng):
    loss = RoundLoss(RIDGE, 1e-4)
    s_ogd = LearnerState(theta=np.zeros(3), step_size=0.05)
    s_top = LearnerState(theta=np.zeros(3), step_size=0.05)
    for _ in range(200):
        x = rng.standard_normal(3)
        y = float(rng.normal())
        s = SideInfo(x, y)
        ogd_step(s_ogd, s, loss)
        topk_filter_step(s_top, s, loss, 0)
        assert np.array_equal(s_ogd.theta, s_top.theta)


def test_theoretical_stepsize():
    assert theoretical_stepsize(1.0, 0.0, 2.0, 4) == pytest.approx(0.5)
    # V_T = 0 general form: 2D/(psi sqrt(T))
    assert theoretical_stepsize(3.0, 0.0, 1.5, 100) == pytest.approx(2 * 3.0 / (1.5 * 10.0))
    assert theoretical_stepsize(1.0, 1.0, 1.0, 10) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        theoretical_stepsize(0.0, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        theoretical_stepsize(1.0, -0.5, 1.0, 10)


def test_state_validation():
    with pytest.raises(ValueError):
        LearnerState(theta=v(0, 0), step_size=0.0)
    with pytest.raises(ValueError):
        LearnerState(theta=v(0, 0), step_size=0.1, radius=-1.0)
