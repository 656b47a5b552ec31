"""Per-round strongly convex losses, the redescending log-exp transform and its
gated gradient, and the derived problem constants.

Two loss families are supported, both lambda-strongly convex and non-negative:

    ridge:      f((x, y), theta) = (lam/2)||theta||^2 + (y - <x, theta>)^2
    hinge_svm:  f((x, y), theta) = (lam/2)||theta||^2 + max(0, 1 - y <x, theta>)

The robust transform of a base loss value f is

    g = -a * log(exp(-f/a) + b),        a, b > 0,

whose gradient is eta * grad_f with the gate

    eta(f) = exp(-f/a) / (b + exp(-f/a)) = 1 / (1 + b * exp(f/a)).

eta decays to zero as f grows, which damps gradient updates on rounds whose
loss is abnormally large (the redescending property).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RIDGE = "ridge"
HINGE_SVM = "hinge_svm"
FAMILIES = (RIDGE, HINGE_SVM)


@dataclass
class SideInfo:
    """One round's observation: feature vector x and response/label y.

    For classification losses y must be -1 or +1.
    """

    x: np.ndarray
    y: float


@dataclass
class RoundLoss:
    """A parametric per-round loss family with regularization weight lam >= 0.

    lam is also the strong-convexity modulus m of the loss. A run needs
    lam > 0 (RunConfig enforces it); lam = 0 is allowed for degenerate,
    merely convex instances in unit tests.
    """

    family: str
    lam: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


@dataclass
class LearnParams:
    """The (a, b) pair of the robust loss transform."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("a and b must be positive")

    @property
    def nu(self) -> float:
        """nu = (1/b) max(a, 1/a), the bound on eta(f) * f; depends on (a, b) only."""
        return (1.0 / self.b) * max(self.a, 1.0 / self.a)


@dataclass
class ProblemConstants:
    """Environment constants (G, L, m, B) and the derived bound constants.

    psi   bounds eta * ||grad f||
    phi   bounds eta * ||theta - omega*||
    kappa bounds eta * ||theta - omega*||^2
    nu    bounds eta * f
    xi    = 1 + b exp(B/a), the gate-inverse factor on clean rounds
    """

    G: float
    L: float
    m: float
    B: float
    psi: float
    phi: float
    kappa: float
    nu: float
    xi: float


def _check_dims(s: SideInfo, theta: np.ndarray):
    if theta.shape != s.x.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs x {s.x.shape}")


def eval_f(loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> float:
    """Evaluate the per-round loss at theta. Always >= 0."""
    _check_dims(s, theta)
    reg = 0.5 * loss.lam * float(theta @ theta)
    if loss.family == RIDGE:
        r = s.y - float(s.x @ theta)
        return reg + r * r
    margin = s.y * float(s.x @ theta)
    return reg + (1.0 - margin if margin < 1.0 else 0.0)


def grad_f(loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> np.ndarray:
    """(Sub)gradient of the per-round loss at theta.

    At the hinge kink (margin exactly 1) the zero-hinge branch lam*theta is
    returned; any subgradient is valid there.
    """
    _check_dims(s, theta)
    if loss.family == RIDGE:
        r = s.y - float(s.x @ theta)
        return loss.lam * theta - (2.0 * r) * s.x
    margin = s.y * float(s.x @ theta)
    if margin < 1.0:
        return loss.lam * theta - s.y * s.x
    return loss.lam * theta


def minimizer_f(loss: RoundLoss, s: SideInfo) -> np.ndarray:
    """Unconstrained minimizer of the per-round loss (closed form).

    ridge:      theta* = (2 y / (lam + 2||x||^2)) x
    hinge_svm:  theta* = min(1/lam, 1/||x||^2) y x
    """
    x = s.x
    nx2 = float(x @ x)
    if loss.family == RIDGE:
        denom = loss.lam + 2.0 * nx2
        if denom == 0.0:
            raise ValueError("degenerate ridge instance: lam = 0 and x = 0")
        return (2.0 * s.y / denom) * x
    if nx2 == 0.0:
        if loss.lam <= 0.0:
            raise ValueError("degenerate hinge instance: lam = 0 and x = 0")
        return np.zeros_like(x)
    c = 1.0 / nx2 if loss.lam <= 0.0 else min(1.0 / loss.lam, 1.0 / nx2)
    return (c * s.y) * x


def eta(params: LearnParams, f_val):
    """Gate eta = 1/(1 + b exp(f/a)) in (0, 1/(1+b)], saturating to 0 on overflow.

    Accepts a scalar or an ndarray of loss values; f must be >= 0.
    """
    a, b = params.a, params.b
    if isinstance(f_val, np.ndarray):
        if np.any(f_val < 0):
            raise ValueError("loss values must be non-negative")
        with np.errstate(over="ignore"):
            z = b * np.exp(f_val / a)
        return np.where(np.isinf(z), 0.0, 1.0 / (1.0 + z))
    if f_val < 0:
        raise ValueError("loss values must be non-negative")
    try:
        z = b * math.exp(f_val / a)
    except OverflowError:
        return 0.0
    if math.isinf(z):
        return 0.0
    return 1.0 / (1.0 + z)


def eval_g(params: LearnParams, loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> float:
    """Robust transform g = -a log(exp(-f/a) + b), evaluated stably.

    Computed as -a log(b) - a log1p(exp(-f/a)/b): exact algebraically, and the
    exp underflow for huge f lands on the asymptote -a log(b).
    Monotone increasing in f; range [-a log(1+b), -a log(b)).
    """
    a, b = params.a, params.b
    f = eval_f(loss, s, theta)
    return -a * math.log(b) - a * math.log1p(math.exp(-f / a) / b)


def grad_g(params: LearnParams, loss: RoundLoss, s: SideInfo, theta: np.ndarray,
           f_val: float | None = None) -> np.ndarray:
    """Gradient of the robust transform: eta(f) * grad_f. f_val, when given, is
    eval_f(loss, s, theta), already evaluated by the caller."""
    f = eval_f(loss, s, theta) if f_val is None else f_val
    return eta(params, f) * grad_f(loss, s, theta)


def derive_constants(params: LearnParams, G: float, L: float, m: float, B: float = 0.0) -> ProblemConstants:
    """Fill the derived bound constants psi, phi, kappa, nu, xi from (a, b, G, L, m, B)."""
    a, b = params.a, params.b
    if m <= 0:
        raise ValueError("strong convexity modulus m must be positive")
    if G < 0 or L < 0 or B < 0:
        raise ValueError("G, L, B must be non-negative")
    psi = G + max(m * L / (2.0 * a * b), 4.0 * a * a * L / (m * m * b))
    phi = (1.0 / b) * max(m / (2.0 * a), 4.0 * a * a / (m * m))
    kappa = (1.0 / b) * max(m / (2.0 * a), 2.0 * a / m)
    try:
        xi = 1.0 + b * math.exp(B / a)
    except OverflowError:
        xi = math.inf
    return ProblemConstants(G=G, L=L, m=m, B=B, psi=psi, phi=phi, kappa=kappa, nu=params.nu, xi=xi)


# ---------------------------------------------------------------------------
# Vectorized companions. Same formulas as the scalar operations above, batched
# either across many actions at one round (experts) or across many rounds
# (comparator computation in the harness). Kept in this module so the family
# formulas live in one place; agreement with the scalar path is covered by
# tests.

def eval_f_many(loss: RoundLoss, s: SideInfo, thetas: np.ndarray) -> np.ndarray:
    """Loss of one round at many actions; thetas has shape (N, d)."""
    reg = 0.5 * loss.lam * np.einsum("ij,ij->i", thetas, thetas)
    proj = thetas @ s.x
    if loss.family == RIDGE:
        r = s.y - proj
        return reg + r * r
    return reg + np.maximum(0.0, 1.0 - s.y * proj)


def grad_f_many(loss: RoundLoss, s: SideInfo, thetas: np.ndarray) -> np.ndarray:
    """(Sub)gradients of one round at many actions; shape (N, d)."""
    if loss.family == RIDGE:
        r = s.y - thetas @ s.x
        return loss.lam * thetas - (2.0 * r)[:, None] * s.x[None, :]
    margins = s.y * (thetas @ s.x)
    active = np.where(margins < 1.0, s.y, 0.0)
    return loss.lam * thetas - active[:, None] * s.x[None, :]


def minimizer_rows(loss: RoundLoss, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form minimizers for many rounds; X is (T, d), y is (T,)."""
    nx2 = np.einsum("ij,ij->i", X, X)
    if loss.family == RIDGE:
        denom = loss.lam + 2.0 * nx2
        if np.any(denom == 0.0):
            raise ValueError("degenerate ridge instance: lam = 0 and x = 0")
        return (2.0 * y / denom)[:, None] * X
    zero = nx2 == 0.0
    if np.any(zero) and loss.lam <= 0.0:
        raise ValueError("degenerate hinge instance: lam = 0 and x = 0")
    with np.errstate(divide="ignore"):
        inv = np.where(zero, 0.0, 1.0 / np.maximum(nx2, 1e-300))
    c = inv if loss.lam <= 0.0 else np.minimum(1.0 / loss.lam, inv)
    c = np.where(zero, 0.0, c)
    return (c * y)[:, None] * X


def eval_f_rows(loss: RoundLoss, X: np.ndarray, y: np.ndarray, Theta: np.ndarray) -> np.ndarray:
    """Loss of round t at action Theta[t], for all rounds."""
    reg = 0.5 * loss.lam * np.einsum("ij,ij->i", Theta, Theta)
    proj = np.einsum("ij,ij->i", X, Theta)
    if loss.family == RIDGE:
        r = y - proj
        return reg + r * r
    return reg + np.maximum(0.0, 1.0 - y * proj)
