"""Numerical verification of the inequalities behind the regret analysis.

Every check samples instances (deterministically under a fixed seed), computes
the two sides of an inequality and reports the worst normalized slack

    margin = (rhs - lhs) / max(1, |lhs|, |rhs|),

so the default tolerance 1e-9 is absolute for small magnitudes and relative
above magnitude one. A violation is a margin below -tol. These inequalities
are exact in real arithmetic; the slack only covers floating-point rounding.

Far-field sampling places actions on a log-radius grid out to 1e6 away from
the minimizer, where the gate eta must beat the polynomial growth of the
gradient and distance terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import harness
from .learners import learn_rows, project_rows
from .losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    ProblemConstants,
    RoundLoss,
    _transform,
    _value,
    derive_constants,
    eta,
    eval_f_rows,
    grad_f_rows,
    growth_constants,
    minimizer_rows,
)

DEFAULT_TOL = 1e-9
MAX_DIM = 6           # instance dimensions are uniform in 1..MAX_DIM
BLOCK_ROWS = 1 << 13  # instances per drawn block, which bounds the working arrays at any sample count


@dataclass
class CheckReport:
    name: str
    samples: int
    violations: int
    worst_slack: float
    tol: float = DEFAULT_TOL

    def line(self) -> str:
        status = "ok" if self.violations == 0 else "VIOLATED"
        return (f"{self.name:28s} samples={self.samples:7d} violations={self.violations:5d} "
                f"worst_slack={self.worst_slack: .3e}  [{status}]")


def _report(name: str, blocks: list, tol: float = DEFAULT_TOL) -> CheckReport:
    """The report of a check whose margins came in the given blocks."""
    margins = np.concatenate([np.empty(0), *blocks])
    return CheckReport(
        name=name,
        samples=int(margins.size),
        violations=int(np.count_nonzero(margins < -tol)),
        worst_slack=float(margins.min()) if margins.size else math.inf,
        tol=tol,
    )


def _margins(lhs, rhs) -> np.ndarray:
    """(rhs - lhs) / max(1, |lhs|, |rhs|), elementwise."""
    return (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _dims(rng: np.random.Generator, n: int):
    """The block shapes (d, m) of n draws with d uniform in 1..MAX_DIM, grouped
    by d, at most BLOCK_ROWS rows each."""
    for d, count in enumerate(rng.multinomial(n, [1.0 / MAX_DIM] * MAX_DIM), start=1):
        for start in range(0, count, BLOCK_ROWS):
            yield d, min(BLOCK_ROWS, count - start)


def _sample(loss: RoundLoss, rng: np.random.Generator, n: int, r_range=(1e-6, 1e6)):
    """n random instances (s, omega*, theta) in blocks (X, y, omega, theta) of
    one dimension each: a random feature direction with ||x|| uniform in
    [0.3, 3], a response y ~ N(0, 2^2) (ridge) or a label y = +-1 (svm), and
    the action at a log-uniform distance from the minimizer omega*."""
    for d, m in _dims(rng, n):
        X = rng.standard_normal((m, d))
        X *= (rng.uniform(0.3, 3.0, m) / np.linalg.norm(X, axis=1))[:, None]
        y = rng.normal(0.0, 2.0, m) if loss.family == RIDGE else rng.choice([-1.0, 1.0], m)
        omega = minimizer_rows(loss, X, y)
        r = np.exp(rng.uniform(math.log(r_range[0]), math.log(r_range[1]), m))
        U = rng.standard_normal((m, d))
        yield X, y, omega, omega + (r / np.linalg.norm(U, axis=1))[:, None] * U


def _f_grad(loss: RoundLoss, X, y, theta):
    """Loss values (m,) and gradients (m, d) of each row's round at its action."""
    proj = np.vecdot(X, theta)
    return _value(loss, proj, np.vecdot(theta, theta), y), grad_f_rows(loss, X, y, theta, proj)


def check_invexity(params: LearnParams, loss: RoundLoss, samples: int,
                   rng: np.random.Generator) -> CheckReport:
    """g(theta) - g(omega*) <= <grad_f(theta), theta - omega*>, omega* = minimizer_rows.

    This is the invexity inequality with the direction field
    zeta(omega*, theta) = (omega* - theta)/eta, using grad_g = eta grad_f.
    """
    blocks = []
    for X, y, omega, theta in _sample(loss, rng, samples):
        f, grad = _f_grad(loss, X, y, theta)
        lhs = _transform(params, f) - _transform(params, eval_f_rows(loss, X, y, omega))
        blocks.append(_margins(lhs, np.vecdot(grad, theta - omega)))
    return _report(f"invexity[{loss.family}]", blocks)


def check_exp_trumps_poly(c: float, r: float, s_exp: float, grid: np.ndarray) -> CheckReport:
    """exp(-c x^s) x^r <= 1/x^s <= 1/c^(s/r) pointwise on grid points x >= c^(1/r)."""
    if min(c, r, s_exp) <= 0:
        raise ValueError("c, r, s must be positive")
    grid = np.asarray(grid, dtype=float)
    thresh = c ** (1.0 / r)
    if np.any(grid < thresh * (1.0 - 1e-12)):
        raise ValueError("grid points must satisfy x >= c^(1/r)")
    xs = grid ** s_exp
    left = np.exp(-c * xs) * grid ** r
    mid = 1.0 / xs
    right = c ** (-s_exp / r)
    return _report(f"exp_trumps_poly[c={c:g},r={r:g},s={s_exp:g}]",
                   [_margins(left, mid), _margins(mid, right)])


def check_eta_grad_bound(params: LearnParams, constants: ProblemConstants, loss: RoundLoss,
                         samples: int, rng: np.random.Generator) -> CheckReport:
    """eta(f(theta)) ||grad_f(theta)|| <= psi, sampling far beyond the minimizer.

    The supplied constants must satisfy the gradient growth condition
    ||grad_f|| <= G + L ||theta - omega*|| for everything the sampler can
    draw; the suite derives them from the sampler's feature-norm cap.
    """
    blocks = []
    for X, y, omega, theta in _sample(loss, rng, samples):
        f, grad = _f_grad(loss, X, y, theta)
        blocks.append(_margins(eta(params, f) * np.linalg.norm(grad, axis=1), constants.psi))
    return _report(f"eta_grad_bound[{loss.family}]", blocks)


def check_eta_f_bound(params: LearnParams, samples: int) -> CheckReport:
    """eta(f) * f <= nu on a log grid of losses spanning [0, 1e12]."""
    f = np.concatenate([[0.0], np.logspace(-9, 12, samples - 1)])
    return _report(f"eta_f_bound[a={params.a:g},b={params.b:g}]", [_margins(eta(params, f) * f, params.nu)])


def check_eta_dist_bounds(params: LearnParams, constants: ProblemConstants, loss: RoundLoss,
                          samples: int, rng: np.random.Generator) -> CheckReport:
    """eta ||theta - omega*|| <= phi and eta ||theta - omega*||^2 <= kappa."""
    blocks = []
    for X, y, omega, theta in _sample(loss, rng, samples):
        dist = np.linalg.norm(theta - omega, axis=1)
        e_dist = eta(params, eval_f_rows(loss, X, y, theta)) * dist
        blocks += [_margins(e_dist, constants.phi), _margins(e_dist * dist, constants.kappa)]
    return _report(f"eta_dist_bounds[{loss.family}]", blocks)


def check_grad_fd(params: LearnParams, loss: RoundLoss, samples: int,
                  rng: np.random.Generator, rel_tol: float = 1e-5) -> CheckReport:
    """Central finite differences of g match grad_g = eta grad_f to relative
    error <= rel_tol.

    Step h = 1e-6 (1 + ||theta||). Points within 1e-3 of the hinge kink are
    excluded. Sampling keeps the differences above the floating-point noise
    floor of the difference quotient: actions are pulled toward the minimizer
    (at most 80 halvings) until f <= 3.5 a, and points whose gated gradient is
    below 1e-2 are redrawn (the gate's far-field crushing is covered by the
    bound checks). Each round of draws redraws the rows still missing, over at
    most 50 samples draws in all.
    """
    cap = 3.5 * params.a
    blocks, kept, drawn = [], 0, 0
    while kept < samples and drawn < 50 * samples:
        n = samples - kept
        drawn += n
        for X, y, omega, theta in _sample(loss, rng, n, r_range=(0.05, 5.0)):
            f = eval_f_rows(loss, X, y, theta)
            for _ in range(80):
                far = f > cap
                if not far.any():
                    break
                theta[far] = omega[far] + 0.5 * (theta[far] - omega[far])
                f[far] = eval_f_rows(loss, X[far], y[far], theta[far])
            f, grad = _f_grad(loss, X, y, theta)
            g = eta(params, f)[:, None] * grad
            gnorm = np.linalg.norm(g, axis=1)
            keep = (f <= cap) & (gnorm >= 1e-2)   # f(omega*) itself may exceed the cap
            if loss.family == HINGE_SVM:
                keep &= np.abs(1.0 - y * np.vecdot(X, theta)) >= 1e-3
            X, y, theta, g, gnorm = X[keep], y[keep], theta[keep], g[keep], gnorm[keep]
            h = 1e-6 * (1.0 + np.linalg.norm(theta, axis=1))
            fd = np.empty_like(theta)
            for j in range(theta.shape[1]):
                up, down = theta.copy(), theta.copy()
                up[:, j] += h
                down[:, j] -= h
                fd[:, j] = (_transform(params, eval_f_rows(loss, X, y, up))
                            - _transform(params, eval_f_rows(loss, X, y, down))) / (2.0 * h)
            blocks.append(-np.linalg.norm(fd - g, axis=1) / gnorm)
            kept += len(theta)
    return _report(f"grad_fd[{loss.family}]", blocks, tol=rel_tol)


def check_euclidean_assumptions(samples: int, rng: np.random.Generator) -> CheckReport:
    """Euclidean instantiation of the unified-analysis assumptions.

    (1) generalized law of cosines with unit constants:
        ||v2-v1||^2 <= ||v2-v3||^2 + ||v3-v1||^2 + 2 ||v2-v3|| ||v3-v1||
    (2) the first-order update property of the gated projected step
        (learners.learn_rows, whose gate eta and descend_rows the runs
        take), with the direction field
        zeta(theta*, theta) = (theta* - theta)/eta:
        ||theta' - theta*||^2 <= ||theta - theta*||^2 + alpha^2 ||grad_g||^2
                                 - 2 alpha eta <-grad_g, zeta(theta*, theta)>
        The unprojected step meets (2) with equality, so on every row with a
        finite radius the step's feasibility, radius - ||theta'|| >= 0, is
        checked too (normalized as a margin).
    """
    n1 = samples // 2
    blocks = []
    for d, m in _dims(rng, n1):
        v1, v2, v3 = rng.normal(0.0, 10.0, (3, m, d))
        a = np.linalg.norm(v2 - v3, axis=1)
        b = np.linalg.norm(v3 - v1, axis=1)
        blocks.append(_margins(np.vecdot(v2 - v1, v2 - v1), a * a + b * b + 2.0 * a * b))

    params = LearnParams(a=2.0, b=0.5)
    n2 = samples - n1
    for family, n in ((RIDGE, n2 - n2 // 2), (HINGE_SVM, n2 // 2)):
        loss = RoundLoss(family=family, lam=0.7)
        while n > 0:
            # distance capped so the gate stays strictly positive and zeta = diff/eta finite
            for X, y, omega, theta in _sample(loss, rng, n, r_range=(1e-3, 10.0)):
                m = len(X)
                radius = np.where(rng.uniform(size=m) < 0.5, math.inf, rng.uniform(0.1, 5.0, m))
                alpha = rng.uniform(0.01, 2.0, m)
                theta_star = omega
                project_rows(theta, radius)
                project_rows(theta_star, radius)
                f, grad = _f_grad(loss, X, y, theta)
                e = eta(params, f)
                ok = e > 0.0   # a row whose gate underflowed is redrawn
                X, y, theta, theta_star, radius, alpha, f, grad, e = (
                    v[ok] for v in (X, y, theta, theta_star, radius, alpha, f, grad, e))
                theta_next = learn_rows(theta, X, y, np.vecdot(X, theta), f, loss, params,
                                        alpha[:, None], radius)
                g = e[:, None] * grad
                zeta = (theta_star - theta) / e[:, None]
                lhs = np.vecdot(theta_next - theta_star, theta_next - theta_star)
                rhs = (np.vecdot(theta - theta_star, theta - theta_star) + alpha * alpha * np.vecdot(g, g)
                       - 2.0 * alpha * e * np.vecdot(-g, zeta))
                bounded = radius < math.inf
                blocks += [_margins(lhs, rhs),
                           _margins(np.linalg.norm(theta_next[bounded], axis=1), radius[bounded])]
                n -= len(X)
    return _report("euclidean_assumptions", blocks)


def default_suite(samples: int = 100_000, seed: int = 2024) -> list:
    """Run every check at >= `samples` samples each and return the reports.

    The exp-trumps-poly combinations stay in the regime c >= (r+s)/(s e)
    where the pointwise chain actually holds; its sup-level consequences are
    exercised without restriction by the eta_grad/eta_dist checks. The
    presets' (a, b) and lam are read from harness.PRESETS at each call.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    ridge, svm = harness.preset_config("ridge"), harness.preset_config("svm")
    ridge_mid = RoundLoss(family=RIDGE, lam=0.5)
    svm_mid = RoundLoss(family=HINGE_SVM, lam=0.5)
    unit = LearnParams(a=1.0, b=1.0)
    plot = LearnParams(a=2.0, b=math.exp(-2.0))

    # G, L valid for all _sample_instance draws: ||x|| in [0.3, 3], so ||omega*|| <= min(3/lam, 1/0.3)
    def consts(params, loss):
        G, L = growth_constants(loss, 3.0 * 3.0, min(3.0 / loss.lam, 1.0 / 0.3))
        return derive_constants(params, G=G, L=L, m=loss.lam)

    n4 = samples // 4 + 1
    reports = []

    for params, loss in ((ridge.params, ridge.loss), (unit, ridge_mid),
                         (svm.params, svm.loss), (plot, svm_mid)):
        reports.append(check_invexity(params, loss, n4, rng))

    grid_combos = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 2.0, 2.0),
                   (2.0, 1.0, 2.0), (3.0, 2.0, 1.0), (1.5, 0.5, 1.0)]
    n_grid = samples // len(grid_combos) + 1
    for c, r, s_exp in grid_combos:
        lo = math.log10(c ** (1.0 / r))
        reports.append(check_exp_trumps_poly(c, r, s_exp, np.logspace(lo, 6, n_grid)))

    for params, loss in ((ridge.params, ridge.loss), (unit, ridge_mid),
                         (svm.params, svm.loss), (unit, svm_mid)):
        reports.append(check_eta_grad_bound(params, consts(params, loss), loss, n4, rng))

    for params in (ridge.params, svm.params, unit, plot):
        reports.append(check_eta_f_bound(params, n4))

    for params, loss in ((ridge.params, ridge.loss), (unit, ridge_mid),
                         (svm.params, svm.loss), (unit, svm_mid)):
        reports.append(check_eta_dist_bounds(params, consts(params, loss), loss, n4 // 2 + 1, rng))

    for params, loss in ((ridge.params, ridge_mid), (plot, svm_mid)):
        reports.append(check_grad_fd(params, loss, samples // 2 + 1, rng))

    reports.append(check_euclidean_assumptions(samples, rng))
    return reports


def merge_reports(name: str, reports: list) -> CheckReport:
    """Collapse the per-configuration reports of one named check into one row."""
    return CheckReport(
        name=name,
        samples=sum(r.samples for r in reports),
        violations=sum(r.violations for r in reports),
        worst_slack=min(r.worst_slack for r in reports),
        tol=max(r.tol for r in reports),
    )


def group_reports(reports: list) -> list:
    """Group a suite's reports by check name (the part before '[')."""
    grouped = {}
    for r in reports:
        key = r.name.split("[")[0]
        grouped.setdefault(key, []).append(r)
    return [merge_reports(k, v) for k, v in grouped.items()]
