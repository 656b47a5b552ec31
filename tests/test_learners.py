import math
import re

import numpy as np
import pytest

from conftest import gate_grid, minimizer_f, random_instance
from robust_oco.learners import (
    LearnerState,
    descend_rows,
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
    grad_f_rows,
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
    # the in-place form the episode loop takes writes the same rows into a buffer
    g = grad_f_rows(loss, X, y, theta, proj) * eta(params, f, out=np.empty(n))[:, None]
    out = np.full_like(theta, np.nan)
    assert descend_rows(theta, g, alpha, radius, out=out) is out
    np.testing.assert_array_equal(out.view(np.uint64), rows.view(np.uint64))
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
    # the gate of rows of losses is eta of each loss alone, as a float, bit for bit:
    # log-uniform losses over f/a in [1e-6, 800], and the edges where b exp(f/a)
    # and then exp(f/a) itself overflow, a few ulps either side
    params = LearnParams(a=a, b=b)
    f = gate_grid(params)
    gates = eta(params, f)
    assert gates.shape == f.shape
    out = np.full_like(f, np.nan)
    assert eta(params, f, out=out) is out
    np.testing.assert_array_equal(out.view(np.uint64), gates.view(np.uint64))
    expected = np.array([eta(params, v) for v in f.ravel().tolist()]).reshape(f.shape)
    np.testing.assert_array_equal(gates.view(np.uint64), expected.view(np.uint64))
    assert (gates == 0.0).any() and (gates == 1.0 / (1.0 + params.b)).any()
    for negative in (-1e-300, -5e-324):   # the second divides to -0.0 at a > 1
        with pytest.raises(ValueError, match="loss values must be non-negative"):
            eta(params, np.array([[1.0, negative]]))
        with pytest.raises(ValueError, match="loss values must be non-negative"):
            eta(params, negative)
    np.testing.assert_array_equal(eta(params, np.array([-0.0, 0.0])), 1.0 / (1.0 + params.b))


@pytest.mark.parametrize("a, b", [(10.0, 10.0), (1e4, 10.0), (0.01, 0.5)])
def test_eta_of_a_stack_or_a_strided_view_is_that_of_each_loss(a, b):
    # the property the batched loop's bit-for-bit tie to the per-seed steps
    # rests on: the gates of a (C, R) stack, of a strided view of it written
    # into a buffer of its own, and of a (C, R) block written in place into a
    # strided view of a larger buffer each equal eta of every loss alone
    params = LearnParams(a=a, b=b)
    rng = np.random.default_rng(5)
    for C, R in [(1, 1), (1, 4), (16, 30), (3, 7), (5, 480)]:
        f = a * np.exp(rng.uniform(math.log(1e-6), math.log(800.0), (C, R)))
        alone = np.array([eta(params, v) for v in f.ravel().tolist()]).reshape(C, R)
        np.testing.assert_array_equal(eta(params, f).view(np.uint64), alone.view(np.uint64))
        for place, step in [(0, 4), (1, 4), (3, 4)]:   # the harness's view of every learn block
            rows = f[place::step]
            got = eta(params, rows, out=np.full(rows.shape, np.nan))
            np.testing.assert_array_equal(got.view(np.uint64), alone[place::step].view(np.uint64))
        wide = np.full((2 * C, R + 3), np.nan)
        view = wide[1::2, 2:R + 2]
        assert eta(params, f, out=view) is view
        np.testing.assert_array_equal(view.view(np.uint64), alone.view(np.uint64))
        assert np.isnan(wide[::2]).all() and np.isnan(wide[:, :2]).all()


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
    for psi in (math.inf, math.nan, 1e200):   # a step size of 0, nan and, as psi^2 overflows, 0
        with pytest.raises(ValueError, match=re.escape(f"psi^2 finite, got D = 1, psi = {psi:g}, T = 10")):
            theoretical_stepsize(1.0, 1.0, psi, 10)


def test_state_validation():
    with pytest.raises(ValueError):
        LearnerState(theta=v(0, 0), step_size=0.0)
    with pytest.raises(ValueError):
        LearnerState(theta=v(0, 0), step_size=0.1, radius=-1.0)
