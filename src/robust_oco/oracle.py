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

from .learners import LearnerState, learn_step, project_ball
from .losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    ProblemConstants,
    RoundLoss,
    SideInfo,
    derive_constants,
    eta,
    eval_f,
    eval_g,
    grad_f,
    grad_g,
    growth_constants,
    minimizer_f,
)

DEFAULT_TOL = 1e-9


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


def _report(name: str, margins: np.ndarray, tol: float = DEFAULT_TOL) -> CheckReport:
    margins = np.asarray(margins, dtype=float)
    return CheckReport(
        name=name,
        samples=int(margins.size),
        violations=int(np.count_nonzero(margins < -tol)),
        worst_slack=float(margins.min()) if margins.size else math.inf,
        tol=tol,
    )


def _margin(lhs, rhs) -> float:
    return (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))


def _sample_instance(loss: RoundLoss, rng: np.random.Generator, max_dim: int = 6,
                     x_norm_range=(0.3, 3.0), r_range=(1e-6, 1e6)):
    """One random (s, omega*, theta): random feature direction and response,
    action at a log-uniform distance from the minimizer."""
    d = int(rng.integers(1, max_dim + 1))
    x = rng.standard_normal(d)
    x *= rng.uniform(*x_norm_range) / np.linalg.norm(x)
    y = float(rng.normal(0.0, 2.0)) if loss.family == RIDGE else float(rng.choice([-1.0, 1.0]))
    s = SideInfo(x=x, y=y)
    omega = minimizer_f(loss, s)
    r = math.exp(rng.uniform(math.log(r_range[0]), math.log(r_range[1])))
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    theta = omega + r * u
    return s, omega, theta


def check_invexity(params: LearnParams, loss: RoundLoss, samples: int,
                   rng: np.random.Generator) -> CheckReport:
    """g(theta) - g(omega*) <= <grad_f(theta), theta - omega*>, omega* = minimizer_f.

    This is the invexity inequality with the direction field
    zeta(omega*, theta) = (omega* - theta)/eta, using grad_g = eta grad_f.
    """
    margins = np.empty(samples)
    for i in range(samples):
        s, omega, theta = _sample_instance(loss, rng)
        lhs = eval_g(params, loss, s, theta) - eval_g(params, loss, s, omega)
        rhs = float(grad_f(loss, s, theta) @ (theta - omega))
        margins[i] = _margin(lhs, rhs)
    return _report(f"invexity[{loss.family}]", margins)


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
    scale1 = np.maximum(1.0, np.maximum(np.abs(left), np.abs(mid)))
    scale2 = np.maximum(1.0, np.maximum(np.abs(mid), abs(right)))
    margins = np.concatenate([(mid - left) / scale1, (right - mid) / scale2])
    return _report(f"exp_trumps_poly[c={c:g},r={r:g},s={s_exp:g}]", margins)


def check_eta_grad_bound(params: LearnParams, constants: ProblemConstants, loss: RoundLoss,
                         samples: int, rng: np.random.Generator) -> CheckReport:
    """eta(f(theta)) ||grad_f(theta)|| <= psi, sampling far beyond the minimizer.

    The supplied constants must satisfy the gradient growth condition
    ||grad_f|| <= G + L ||theta - omega*|| for everything the sampler can
    draw; the suite derives them from the sampler's feature-norm cap.
    """
    margins = np.empty(samples)
    for i in range(samples):
        s, omega, theta = _sample_instance(loss, rng)
        f = eval_f(loss, s, theta)
        lhs = eta(params, f) * float(np.linalg.norm(grad_f(loss, s, theta)))
        margins[i] = _margin(lhs, constants.psi)
    return _report(f"eta_grad_bound[{loss.family}]", margins)


def check_eta_f_bound(params: LearnParams, samples: int) -> CheckReport:
    """eta(f) * f <= nu on a log grid of losses spanning [0, 1e12]."""
    f = np.concatenate([[0.0], np.logspace(-9, 12, samples - 1)])
    nu = params.nu
    lhs = eta(params, f) * f
    scale = np.maximum(1.0, np.maximum(lhs, nu))
    return _report(f"eta_f_bound[a={params.a:g},b={params.b:g}]", (nu - lhs) / scale)


def check_eta_dist_bounds(params: LearnParams, constants: ProblemConstants, loss: RoundLoss,
                          samples: int, rng: np.random.Generator) -> CheckReport:
    """eta ||theta - omega*|| <= phi and eta ||theta - omega*||^2 <= kappa."""
    margins = np.empty(2 * samples)
    for i in range(samples):
        s, omega, theta = _sample_instance(loss, rng)
        dist = float(np.linalg.norm(theta - omega))
        e = eta(params, eval_f(loss, s, theta))
        margins[2 * i] = _margin(e * dist, constants.phi)
        margins[2 * i + 1] = _margin(e * dist * dist, constants.kappa)
    return _report(f"eta_dist_bounds[{loss.family}]", margins)


def check_grad_fd(params: LearnParams, loss: RoundLoss, samples: int,
                  rng: np.random.Generator, rel_tol: float = 1e-5) -> CheckReport:
    """Central finite differences of eval_g match grad_g to relative error <= rel_tol.

    Step h = 1e-6 (1 + ||theta||). Points within 1e-3 of the hinge kink are
    excluded. Sampling keeps the differences above the floating-point noise
    floor of the difference quotient: actions are pulled toward the minimizer
    until f <= 3.5 a, and points whose gated gradient is below 1e-2 are
    redrawn (the gate's far-field crushing is covered by the bound checks).
    """
    margins = []
    attempts = 0
    while len(margins) < samples and attempts < 50 * samples:
        attempts += 1
        s, omega, theta = _sample_instance(loss, rng, r_range=(0.05, 5.0))
        f = eval_f(loss, s, theta)
        for _ in range(80):
            if f <= 3.5 * params.a:
                break
            theta = omega + 0.5 * (theta - omega)
            f = eval_f(loss, s, theta)
        if f > 3.5 * params.a:  # f(omega*) itself exceeds the cap; skip the sample
            continue
        if loss.family == HINGE_SVM and abs(1.0 - s.y * float(s.x @ theta)) < 1e-3:
            continue
        g = grad_g(params, loss, s, theta)
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-2:
            continue
        h = 1e-6 * (1.0 + float(np.linalg.norm(theta)))
        fd = np.empty_like(theta)
        for j in range(theta.size):
            e_j = np.zeros_like(theta)
            e_j[j] = h
            fd[j] = (eval_g(params, loss, s, theta + e_j) - eval_g(params, loss, s, theta - e_j)) / (2.0 * h)
        rel = float(np.linalg.norm(fd - g)) / gnorm
        margins.append(-rel)
    return _report(f"grad_fd[{loss.family}]", np.array(margins), tol=rel_tol)


def check_euclidean_assumptions(samples: int, rng: np.random.Generator) -> CheckReport:
    """Euclidean instantiation of the unified-analysis assumptions.

    (1) generalized law of cosines with unit constants:
        ||v2-v1||^2 <= ||v2-v3||^2 + ||v3-v1||^2 + 2 ||v2-v3|| ||v3-v1||
    (2) the first-order update property of the gated projected step, with the
        direction field zeta(theta*, theta) = (theta* - theta)/eta:
        ||theta' - theta*||^2 <= ||theta - theta*||^2 + alpha^2 ||grad_g||^2
                                 - 2 alpha eta <-grad_g, zeta(theta*, theta)>
    """
    n1 = samples // 2
    margins = np.empty(samples)
    for i in range(n1):
        d = int(rng.integers(1, 7))
        v1, v2, v3 = (rng.normal(0, 10.0, d) for _ in range(3))
        a = float(np.linalg.norm(v2 - v3))
        b = float(np.linalg.norm(v3 - v1))
        margins[i] = _margin(float((v2 - v1) @ (v2 - v1)), a * a + b * b + 2.0 * a * b)

    params = LearnParams(a=2.0, b=0.5)
    families = [RoundLoss(family=RIDGE, lam=0.7), RoundLoss(family=HINGE_SVM, lam=0.7)]
    i = n1
    while i < samples:
        loss = families[i % 2]
        # radius capped so the gate stays strictly positive and zeta = diff/eta finite
        s, omega, theta = _sample_instance(loss, rng, r_range=(1e-3, 10.0))
        radius = math.inf if rng.uniform() < 0.5 else float(rng.uniform(0.1, 5.0))
        theta = project_ball(theta, radius)
        theta_star = project_ball(omega.copy(), radius)
        alpha = float(rng.uniform(0.01, 2.0))
        e = eta(params, eval_f(loss, s, theta))
        if e == 0.0:
            continue
        g = grad_g(params, loss, s, theta)
        state = LearnerState(theta=theta.copy(), step_size=alpha, radius=radius)
        theta_next = learn_step(state, s, loss, params).theta
        zeta = (theta_star - theta) / e
        lhs = float((theta_next - theta_star) @ (theta_next - theta_star))
        rhs = (float((theta - theta_star) @ (theta - theta_star))
               + alpha * alpha * float(g @ g)
               - 2.0 * alpha * e * float((-g) @ zeta))
        margins[i] = _margin(lhs, rhs)
        i += 1
    return _report("euclidean_assumptions", margins)


def default_suite(samples: int = 100_000, seed: int = 2024) -> list:
    """Run every check at >= `samples` samples each and return the reports.

    The exp-trumps-poly combinations stay in the regime c >= (r+s)/(s e)
    where the pointwise chain actually holds; its sup-level consequences are
    exercised without restriction by the eta_grad/eta_dist checks.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    ridge_mid = RoundLoss(family=RIDGE, lam=0.5)
    ridge_small = RoundLoss(family=RIDGE, lam=1e-4)
    svm_mid = RoundLoss(family=HINGE_SVM, lam=0.5)
    svm_small = RoundLoss(family=HINGE_SVM, lam=1e-4)
    preset_ridge = LearnParams(a=10.0, b=10.0)
    preset_svm = LearnParams(a=1e4, b=10.0)
    unit = LearnParams(a=1.0, b=1.0)
    plot = LearnParams(a=2.0, b=math.exp(-2.0))

    # G, L valid for all _sample_instance draws: ||x|| in [0.3, 3], so ||omega*|| <= min(3/lam, 1/0.3)
    def consts(params, loss):
        G, L = growth_constants(loss, 3.0 * 3.0, min(3.0 / loss.lam, 1.0 / 0.3))
        return derive_constants(params, G=G, L=L, m=loss.lam)

    n4 = samples // 4 + 1
    reports = []

    for params, loss in ((preset_ridge, ridge_small), (unit, ridge_mid),
                         (preset_svm, svm_small), (plot, svm_mid)):
        reports.append(check_invexity(params, loss, n4, rng))

    grid_combos = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 2.0, 2.0),
                   (2.0, 1.0, 2.0), (3.0, 2.0, 1.0), (1.5, 0.5, 1.0)]
    n_grid = samples // len(grid_combos) + 1
    for c, r, s_exp in grid_combos:
        lo = math.log10(c ** (1.0 / r))
        reports.append(check_exp_trumps_poly(c, r, s_exp, np.logspace(lo, 6, n_grid)))

    for params, loss in ((preset_ridge, ridge_small), (unit, ridge_mid),
                         (preset_svm, svm_small), (unit, svm_mid)):
        reports.append(check_eta_grad_bound(params, consts(params, loss), loss, n4, rng))

    for params in (preset_ridge, preset_svm, unit, plot):
        reports.append(check_eta_f_bound(params, n4))

    for params, loss in ((preset_ridge, ridge_small), (unit, ridge_mid),
                         (preset_svm, svm_small), (unit, svm_mid)):
        reports.append(check_eta_dist_bounds(params, consts(params, loss), loss, n4 // 2 + 1, rng))

    for params, loss in ((preset_ridge, ridge_mid), (plot, svm_mid)):
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
