import math

import numpy as np
import pytest

from robust_oco import harness, learners, losses, oracle
from robust_oco.losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    RoundLoss,
    derive_constants,
    eta,
    grad_f,
)


def rng():
    return np.random.default_rng(777)


def test_invexity_check_passes():
    rep = oracle.check_invexity(LearnParams(1, 1), RoundLoss(RIDGE, 0.5), 2000, rng())
    assert rep.violations == 0
    assert rep.worst_slack >= -rep.tol
    rep = oracle.check_invexity(LearnParams(1e4, 10), RoundLoss(HINGE_SVM, 1e-4), 2000, rng())
    assert rep.violations == 0


def test_invexity_lemma_example_values():
    # f(theta) = theta^2, theta = 1, omega* = 0, a = b = 1:
    # lhs = g(1) - g(0) ~ 0.379885, rhs = <grad f(1), 1> = 2
    from conftest import eval_g, minimizer_f
    from robust_oco.losses import SideInfo
    loss = RoundLoss(RIDGE, 0.0)
    s = SideInfo(np.array([1.0]), 0.0)
    params = LearnParams(1.0, 1.0)
    theta, omega = np.array([1.0]), minimizer_f(loss, s)
    lhs = eval_g(params, loss, s, theta) - eval_g(params, loss, s, omega)
    rhs = float(grad_f(loss, s, theta) @ (theta - omega))
    assert lhs == pytest.approx(0.3798854930417224, rel=1e-12)
    assert rhs == pytest.approx(2.0)
    assert lhs <= rhs


def test_invexity_detects_sign_error(monkeypatch):
    # injected sign error in the batched gradient path must trip the invexity check
    grad_f_rows = oracle.grad_f_rows
    monkeypatch.setattr(oracle, "grad_f_rows", lambda *args: -grad_f_rows(*args))
    rep = oracle.check_invexity(LearnParams(1, 1), RoundLoss(RIDGE, 0.5), 500, rng())
    assert rep.violations > 0
    assert rep.worst_slack < -rep.tol


def _block(loss):
    """One block (X, y, omega, theta) of the oracle's own sampler."""
    return next(oracle._sample(loss, rng(), 200, r_range=(0.05, 5.0)))


def test_suite_detects_wrong_gate_constant(monkeypatch):
    # b replaced by b/10 in the gate only: the transform g keeps b, so the
    # gated gradient no longer is g's gradient
    params = LearnParams(10.0, 10.0)
    f = np.logspace(-3, 3, 50)

    def wrong_gate(p, f_val):
        return eta(LearnParams(p.a, p.b / 10.0), f_val)

    assert np.all(wrong_gate(params, f) > eta(params, f))   # the mutant changes the gate
    monkeypatch.setattr(oracle, "eta", wrong_gate)
    for params, loss in ((params, RoundLoss(RIDGE, 0.5)),
                         (LearnParams(2.0, math.exp(-2)), RoundLoss(HINGE_SVM, 0.5))):
        rep = oracle.check_grad_fd(params, loss, 400, rng())
        assert rep.violations > 0, rep.line()
    assert oracle.check_euclidean_assumptions(2000, rng()).violations > 0


def test_euclidean_check_detects_wrong_gate_in_the_step(monkeypatch):
    # the same wrong constant in the gate of the runs' step (learners.learn_rows
    # calls eta by its name in learners)
    loss, params = RoundLoss(RIDGE, 0.7), LearnParams(2.0, 0.5)
    X, y, omega, theta = _block(loss)
    proj, f = np.vecdot(X, theta), oracle.eval_f_rows(loss, X, y, theta)
    right = learners.learn_rows(theta, X, y, proj, f, loss, params, 0.5, math.inf)
    gate = learners.eta
    monkeypatch.setattr(learners, "eta", lambda p, f: gate(LearnParams(p.a, p.b / 10.0), f))
    assert not np.allclose(learners.learn_rows(theta, X, y, proj, f, loss, params, 0.5, math.inf), right)
    assert oracle.check_euclidean_assumptions(2000, rng()).violations > 0


def test_suite_detects_flipped_hinge_inequality(monkeypatch):
    # the active-hinge test of _coef flipped: y <x, theta> > 1 in place of < 1
    loss = RoundLoss(HINGE_SVM, 0.5)
    X, y, omega, theta = _block(loss)
    proj = np.vecdot(X, theta)
    right = losses.grad_f_rows(loss, X, y, theta, proj)
    coef = losses._coef
    monkeypatch.setattr(losses, "_coef", lambda loss, proj, y: (y * proj > 1.0) * y
                        if loss.family == HINGE_SVM else coef(loss, proj, y))
    assert not np.allclose(losses.grad_f_rows(loss, X, y, theta, proj), right)   # the mutant changes grad_f
    for params in (LearnParams(2.0, math.exp(-2)), LearnParams(1e4, 10.0)):
        assert oracle.check_invexity(params, loss, 500, rng()).violations > 0
        assert oracle.check_grad_fd(params, loss, 400, rng()).violations > 0


def test_euclidean_check_detects_step_without_projection(monkeypatch):
    # the unprojected step meets the update property with equality: only the
    # feasibility margin radius - ||theta'|| catches it
    loss, params = RoundLoss(RIDGE, 0.7), LearnParams(2.0, 0.5)
    X, y, omega, theta = _block(loss)
    proj, f = np.vecdot(X, theta), oracle.eval_f_rows(loss, X, y, theta)
    radius = np.full(len(X), 0.5)
    monkeypatch.setattr(learners, "descend_rows", lambda theta, g, alpha, radius: theta - alpha * g)
    stepped = learners.learn_rows(theta, X, y, proj, f, loss, params, 0.5, radius)
    assert np.any(np.linalg.norm(stepped, axis=1) > radius)   # the mutant leaves the ball
    rep = oracle.check_euclidean_assumptions(2000, rng())
    assert rep.violations > 0
    assert rep.worst_slack < -rep.tol


def test_exp_trumps_poly_example_and_boundary():
    rep = oracle.check_exp_trumps_poly(1.0, 1.0, 1.0, np.array([1.0, 2.0, 1e6]))
    assert rep.violations == 0
    # x = 2: 2 e^{-2} ~ 0.2707 <= 0.5 <= 1
    assert math.exp(-2.0) * 2.0 <= 0.5 <= 1.0
    with pytest.raises(ValueError):
        oracle.check_exp_trumps_poly(1.0, 1.0, 1.0, np.array([0.5]))
    with pytest.raises(ValueError):
        oracle.check_exp_trumps_poly(-1.0, 1.0, 1.0, np.array([1.0]))


def test_eta_f_bound_check_and_case_point():
    for a, b in ((1.0, 1.0), (10.0, 10.0), (1e4, 10.0), (0.2, 3.0)):
        params = LearnParams(a, b)
        rep = oracle.check_eta_f_bound(params, 5000)
        assert rep.violations == 0
        # case split point f = 1/a satisfies eta * f <= 1/(a b)
        f = 1.0 / a
        assert eta(params, f) * f <= 1.0 / (a * b) + 1e-9


def test_eta_grad_and_dist_bound_checks():
    params = LearnParams(2.0, 0.5)
    loss = RoundLoss(RIDGE, 0.5)
    consts = derive_constants(params, G=0.0, L=loss.lam + 2 * 9.0, m=loss.lam)
    assert oracle.check_eta_grad_bound(params, consts, loss, 2000, rng()).violations == 0
    assert oracle.check_eta_dist_bounds(params, consts, loss, 1000, rng()).violations == 0
    loss = RoundLoss(HINGE_SVM, 0.5)
    consts = derive_constants(params, G=0.5 * (3 / 0.5) + 3.0, L=0.5, m=0.5)
    assert oracle.check_eta_grad_bound(params, consts, loss, 2000, rng()).violations == 0
    assert oracle.check_eta_dist_bounds(params, consts, loss, 1000, rng()).violations == 0


def test_grad_fd_check():
    rep = oracle.check_grad_fd(LearnParams(10.0, 10.0), RoundLoss(RIDGE, 0.5), 400, rng())
    assert rep.violations == 0 and rep.samples >= 400
    rep = oracle.check_grad_fd(LearnParams(2.0, math.exp(-2)), RoundLoss(HINGE_SVM, 0.5), 400, rng())
    assert rep.violations == 0


def test_euclidean_assumptions_check():
    rep = oracle.check_euclidean_assumptions(2000, rng())
    assert rep.violations == 0
    assert rep.worst_slack >= -rep.tol


def test_collinear_triple_equality():
    # collinear points meet the law of cosines with equality
    v1, v3, v2 = np.array([0.0]), np.array([1.0]), np.array([3.0])
    a = np.linalg.norm(v2 - v3)
    b = np.linalg.norm(v3 - v1)
    assert float((v2 - v1) @ (v2 - v1)) == pytest.approx(a * a + b * b + 2 * a * b)


def test_report_invariant_and_grouping():
    reps = [
        oracle.CheckReport(name="x[a]", samples=10, violations=0, worst_slack=-5e-10),
        oracle.CheckReport(name="x[b]", samples=5, violations=1, worst_slack=-2e-8),
        oracle.CheckReport(name="y[a]", samples=7, violations=0, worst_slack=1e-3),
    ]
    for rep in reps:
        assert (rep.violations == 0) == (rep.worst_slack >= -rep.tol)
    grouped = {r.name: r for r in oracle.group_reports(reps)}
    assert grouped["x"].samples == 15 and grouped["x"].violations == 1
    assert grouped["x"].worst_slack == -2e-8
    assert grouped["y"].violations == 0


def test_default_suite_quick():
    reports = oracle.default_suite(samples=400, seed=5)
    grouped = oracle.group_reports(reports)
    names = {r.name for r in grouped}
    assert names == {"invexity", "exp_trumps_poly", "eta_grad_bound", "eta_f_bound",
                     "eta_dist_bounds", "grad_fd", "euclidean_assumptions"}
    for rep in grouped:
        assert rep.violations == 0, rep.line()
    # determinism under a fixed seed
    again = oracle.group_reports(oracle.default_suite(samples=400, seed=5))
    assert [(r.name, r.worst_slack) for r in grouped] == [(r.name, r.worst_slack) for r in again]


def test_default_suite_needs_a_sample():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            oracle.default_suite(samples=samples)
    reports = oracle.default_suite(samples=1, seed=5)   # every check still draws one
    assert min(r.samples for r in reports) >= 1
    assert all(math.isfinite(r.worst_slack) for r in reports)


def test_default_suite_reads_the_preset_table(monkeypatch):
    names = {r.name for r in oracle.default_suite(samples=1, seed=5)}
    assert {"eta_f_bound[a=10,b=10]", "eta_f_bound[a=10000,b=10]"} <= names
    monkeypatch.setitem(harness.PRESETS["svm"], "params", LearnParams(a=5.0, b=10.0))
    names = {r.name for r in oracle.default_suite(samples=1, seed=5)}
    assert "eta_f_bound[a=5,b=10]" in names and "eta_f_bound[a=10000,b=10]" not in names
