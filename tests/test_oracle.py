import math

import numpy as np
import pytest

from robust_oco import experts, harness, learners, losses, oracle
from robust_oco.experts import aggregate_action, build_grid, init_pool, pool_step
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


def _step_block(loss, params, X, y, theta, radius):
    """The block's actions after one step of learners.gated_step, looked up
    in learners so that a mutant patched there takes it, on the gates of eta."""
    proj = np.vecdot(X, theta)
    out = np.empty_like(theta)
    gates = eta(params, oracle.eval_f_rows(loss, X, y, theta))
    learners.gated_step(theta, X, losses._coef(loss, proj, y)[:, None], loss.lam, gates[:, None], 0.5, radius, out)
    return out


def _learn_regret(**overrides):
    """The final regret of each seed of a small learn cell, from run_cells."""
    config = harness.preset_config("svm", T=120, seeds=[1, 2], learner=harness.LEARN, **overrides)
    return [curve.final for curve in harness.run_cells(config, [harness.LEARN])[0].curves]


def _pool_actions():
    """The actions of a one-seed pool, from init_pool, after pool_step on
    rounds that split its shared rows and then step the split rows past their
    radii."""
    grid = build_grid(4.0, 1.0, 8)
    loss, params = RoundLoss(RIDGE, 0.0), LearnParams(1e6, 1.0)
    pool = init_pool(grid, 2, 0.5)
    for x, y in (([7.0710678, 0.0], 4.0), ([0.0, 3.0], -40.0), ([2.0, -1.0], 25.0)):
        pool_step(pool, np.array([x]), np.array([y]), loss, params)
    return aggregate_action(pool)


def test_euclidean_check_detects_wrong_gate_in_the_step(monkeypatch):
    # the same wrong constant in the gates of the one gated projected step,
    # which the oracle's update check, the runs and the expert pool all take:
    # the mutant turns each gate 1/(1 + b E) into 1/(1 + (b/10) E)
    assert harness.gated_step is experts.gated_step is oracle.gated_step is learners.gated_step
    loss, params = RoundLoss(RIDGE, 0.7), LearnParams(2.0, 0.5)
    X, y, omega, theta = _block(loss)
    right, regret, actions = _step_block(loss, params, X, y, theta, math.inf), _learn_regret(), _pool_actions()
    step = learners.gated_step

    def wrong_gate(theta, x, c, lam, gates, *args, **kwargs):
        with np.errstate(divide="ignore"):   # a gate of 0 stays 0
            gates = 1.0 / (1.0 + (1.0 / gates - 1.0) / 10.0)
        return step(theta, x, c, lam, gates, *args, **kwargs)

    for module in (learners, harness, experts, oracle):
        monkeypatch.setattr(module, "gated_step", wrong_gate)
    assert not np.allclose(_step_block(loss, params, X, y, theta, math.inf), right)
    assert oracle.check_euclidean_assumptions(2000, rng()).violations > 0
    assert all(wrong != final for wrong, final in zip(_learn_regret(), regret))
    assert not np.allclose(_pool_actions(), actions)


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
    # feasibility margin radius - ||theta'|| catches it. The mutant is the
    # projection inside the one gated projected step (project_rows by its
    # name in learners): the runs' finite-radius cells and the pool's split
    # rows, which it projects, move with it
    loss, params = RoundLoss(RIDGE, 0.7), LearnParams(2.0, 0.5)
    X, y, omega, theta = _block(loss)
    radius = np.full(len(X), 0.5)
    regret, actions = _learn_regret(radius=0.1), _pool_actions()
    monkeypatch.setattr(learners, "project_rows", lambda thetas, radii, sq: np.sqrt(sq))
    stepped = _step_block(loss, params, X, y, theta, radius)
    assert np.any(np.linalg.norm(stepped, axis=1) > radius)   # the mutant leaves the ball
    rep = oracle.check_euclidean_assumptions(2000, rng())
    assert rep.violations > 0
    assert rep.worst_slack < -rep.tol
    assert all(wrong != final for wrong, final in zip(_learn_regret(radius=0.1), regret))
    assert not np.allclose(_pool_actions(), actions)


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


# The finite-difference check as a loop over rows and coordinates: its
# reference. Each block's loss is the row-by-row einsum form of eval_f_rows,
# actions are halved toward omega* one halving at a time, and each coordinate
# j takes two (m, d) evaluations.

def einsum_f_rows(loss, X, y, Theta):
    return losses._value(loss, np.einsum("ij,ij->i", X, Theta), np.einsum("ij,ij->i", Theta, Theta), y)


def reference_pull(loss, X, y, omega, theta, cap):
    f = einsum_f_rows(loss, X, y, theta)
    for _ in range(80):
        far = f > cap
        if not far.any():
            break
        theta[far] = omega[far] + 0.5 * (theta[far] - omega[far])
        f[far] = einsum_f_rows(loss, X[far], y[far], theta[far])
    return theta


def reference_fd_margins(params, loss, X, y, theta, g, gnorm):
    h = 1e-6 * (1.0 + np.linalg.norm(theta, axis=1))
    fd = np.empty_like(theta)
    for j in range(theta.shape[1]):
        up, down = theta.copy(), theta.copy()
        up[:, j] += h
        down[:, j] -= h
        fd[:, j] = (losses._transform(params, einsum_f_rows(loss, X, y, up))
                    - losses._transform(params, einsum_f_rows(loss, X, y, down))) / (2.0 * h)
    return -np.linalg.norm(fd - g, axis=1) / gnorm


def reference_grad_fd(params, loss, samples, rng):
    """Each dimension's margins, in the order of the blocks that kept them, and
    the sizes of the kept blocks."""
    cap = 3.5 * params.a
    margins, sizes, kept, drawn = {}, [], 0, 0
    while kept < samples and drawn < 50 * samples:
        n = samples - kept
        drawn += n
        for X, y, omega, theta in oracle._sample(loss, rng, n, r_range=(0.05, 5.0)):
            theta = reference_pull(loss, X, y, omega, theta, cap)
            f, grad = oracle._f_grad(loss, X, y, theta)
            g = eta(params, f)[:, None] * grad
            gnorm = np.linalg.norm(g, axis=1)
            keep = (f <= cap) & (gnorm >= 1e-2)
            if loss.family == HINGE_SVM:
                keep &= np.abs(1.0 - y * np.vecdot(X, theta)) >= 1e-3
            X, y, theta, g, gnorm = X[keep], y[keep], theta[keep], g[keep], gnorm[keep]
            margins.setdefault(X.shape[1], []).append(reference_fd_margins(params, loss, X, y, theta, g, gnorm))
            sizes.append(X.shape)
            kept += len(X)
    return {d: np.concatenate(v) for d, v in margins.items()}, sizes


FD_CASES = [(LearnParams(10.0, 10.0), RoundLoss(RIDGE, 0.5)), (LearnParams(2.0, math.exp(-2)), RoundLoss(HINGE_SVM, 0.5))]


@pytest.mark.parametrize("params, loss", FD_CASES, ids=[RIDGE, HINGE_SVM])
@pytest.mark.parametrize("samples", [400, 3000])
@pytest.mark.parametrize("seed", [1, 7])
def test_grad_fd_margins_are_the_reference_loops_bit_for_bit(monkeypatch, params, loss, samples, seed):
    taken = {}
    fd_margins = oracle._fd_margins

    def recorded(params, loss, X, *rows):
        margins = fd_margins(params, loss, X, *rows)
        taken.setdefault(X.shape[1], []).append(margins)
        return margins

    monkeypatch.setattr(oracle, "_fd_margins", recorded)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = oracle.check_grad_fd(params, loss, samples, rng)
    ref, sizes = reference_grad_fd(params, loss, samples, ref_rng)
    assert rng.random() == ref_rng.random()   # the same draws
    assert {d for _, d in sizes} == set(range(1, oracle.MAX_DIM + 1))   # a d = 1 block among them
    if loss.family == RIDGE and samples == 3000:
        assert any(m == 0 for m, _ in sizes)   # and a block that keeps no row
    assert sorted(taken) == sorted(d for d, v in ref.items() if v.size)
    for d, margins in taken.items():
        np.testing.assert_array_equal(np.concatenate(margins).view(np.uint64), ref[d].view(np.uint64))
    every = np.concatenate(list(ref.values()))
    assert (rep.samples, rep.violations, rep.worst_slack) == (every.size, 0, every.min())


@pytest.mark.parametrize("params, loss", FD_CASES, ids=[RIDGE, HINGE_SVM])
def test_fd_margins_of_a_one_dimension_and_an_empty_block(params, loss):
    X, y, omega, theta = next(b for b in oracle._sample(loss, rng(), 600, r_range=(0.05, 5.0)) if b[0].shape[1] == 1)
    theta = reference_pull(loss, X, y, omega, theta, 3.5 * params.a)
    f, grad = oracle._f_grad(loss, X, y, theta)
    g = eta(params, f)[:, None] * grad
    gnorm = np.linalg.norm(g, axis=1)
    for rows in (slice(None), slice(0), slice(3, 4)):   # the whole d = 1 block, no row, one row
        block = X[rows], y[rows], theta[rows], g[rows], gnorm[rows]
        margins = oracle._fd_margins(params, loss, *block)
        np.testing.assert_array_equal(margins.view(np.uint64), reference_fd_margins(params, loss, *block).view(np.uint64))


@pytest.mark.parametrize("loss", [RoundLoss(RIDGE, 0.5), RoundLoss(HINGE_SVM, 0.5)], ids=[RIDGE, HINGE_SVM])
@pytest.mark.parametrize("cap", [1e-9, 0.05, 0.5, 3.5])
def test_pull_is_the_one_halving_loop_bit_for_bit(loss, cap):
    # at cap 1e-9 no row gets there: each stops after the 80th halving
    for X, y, omega, theta in oracle._sample(loss, rng(), 900, r_range=(0.05, 50.0)):
        pulled = oracle._pull(loss, X, y, omega, theta.copy(), cap)
        np.testing.assert_array_equal(pulled.view(np.uint64),
                                      reference_pull(loss, X, y, omega, theta, cap).view(np.uint64))


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
            oracle.default_suite(samples=samples, seed=2024)
    reports = oracle.default_suite(samples=1, seed=5)   # every check still draws one
    assert min(r.samples for r in reports) >= 1
    assert all(math.isfinite(r.worst_slack) for r in reports)


def test_default_suite_reads_the_preset_table(monkeypatch):
    names = {r.name for r in oracle.default_suite(samples=1, seed=5)}
    assert {"eta_f_bound[a=10,b=10]", "eta_f_bound[a=10000,b=10]"} <= names
    monkeypatch.setitem(harness.PRESETS["svm"], "params", LearnParams(a=5.0, b=10.0))
    names = {r.name for r in oracle.default_suite(samples=1, seed=5)}
    assert "eta_f_bound[a=5,b=10]" in names and "eta_f_bound[a=10000,b=10]" not in names
