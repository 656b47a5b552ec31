"""Per-round strongly convex losses, the redescending log-exp transform and its
gated gradient, and the gradient growth and derived problem constants.

Two loss families are supported, both lambda-strongly convex and non-negative:

    ridge:      f((x, y), theta) = (lam/2)||theta||^2 + (y - <x, theta>)^2
    hinge_svm:  f((x, y), theta) = (lam/2)||theta||^2 + max(0, 1 - y <x, theta>)

The robust transform of a base loss value f is

    g = -a * log(exp(-f/a) + b),        a, b > 0,

whose gradient is eta * grad_f with the gate

    eta(f) = exp(-f/a) / (b + exp(-f/a)) = 1 / (1 + b * exp(f/a)).

eta decays to zero as f grows, which damps gradient updates on rounds whose
loss is abnormally large (the redescending property). eta(params, f, out) is
the one gate; it writes into an optional out as the _link kernels do. It is
its checks and _gate(params, f, out, z), which the harness's loop calls
alone on a round whose losses it has bounded.

Each family's formulas are written once, in private kernels that take the
inner products a loss depends on, as floats or as arrays:

    _value(loss, proj, sq, y)    f from proj = <x, theta>, sq = ||theta||^2 and y
    _coef(loss, proj, y)         the c in grad_f = lam theta - c x
    _min_scale(loss, nx2, y)     the c in the minimizer theta* = c x, nx2 = ||x||^2

and the transform g of a loss value f is _transform(params, f). The value and
the coefficient both read one product of proj and y, _link: the residual
y - proj or the margin y proj. A caller that needs both, as the expert pool's
round and the harness's round do, forms it once and calls _link_value and
_link_coef. The three take an optional out, as a numpy ufunc does, into
which their last operation writes, so a loop can keep each round in buffers
it allocated once; given floats and no out they return numpy floats. (An
operation whose out is one of its own one-element inputs costs about 1 us
more than one that writes elsewhere, so no kernel accumulates in out.)

The public functions only form those inner products for their shape: one
round at one action (eval_f, grad_f), one round at many actions
(eval_f_many, grad_f_many) or many rounds at one action each (eval_f_rows,
grad_f_rows, minimizer_rows: X is (T, d) and y is (T,)). eval_f_rows and
grad_f_rows also take a stack of actions per round, Theta of shape
(..., T, d), and give (..., T) losses and (..., T, d) gradients. The
harness's stacked episode loop calls the _link kernels on one round of many
cells and seeds; the oracle calls the kernels on blocks of sampled
instances, and eval_f_rows on a block's stepped copies at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RIDGE = "ridge"
HINGE_SVM = "hinge_svm"
FAMILIES = (RIDGE, HINGE_SVM)

EXP_MAX = 709.782712893384   # the largest float whose exp is finite, in libm's math.exp and np.exp alike

# The literal constants of the array kernels, as 0-d arrays: numpy takes a
# Python float operand as a weak scalar, which costs about 0.4 us more per
# call on an episode's small arrays than a 0-d float64 array, and gives the
# same float64 result.
_ZERO, _ONE, _TWO, _TINY = np.array(0.0), np.array(1.0), np.array(2.0), np.array(1e-300)


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


@dataclass(frozen=True)
class LearnParams:
    """The (a, b) pair of the robust loss transform."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("a and b must be positive and finite")

    @cached_property
    def _gate_operands(self) -> tuple:
        """eta's 0-d operands (see _ONE): a, b and a loss up to which no exp(f/a) nor b exp(f/a) overflows."""
        return np.array(self.a), np.array(self.b), np.array(self.a * (EXP_MAX - 1.0 - max(math.log(self.b), 0.0)))

    @property
    def nu(self) -> float:
        """nu = (1/b) max(a, 1/a), the bound on eta(f) * f; depends on (a, b) only."""
        return (1.0 / self.b) * max(self.a, 1.0 / self.a)


@dataclass
class ProblemConstants:
    """The gradient growth constants (G, L) and the derived bound constants.

    psi   bounds eta * ||grad f||
    phi   bounds eta * ||theta - omega*||
    kappa bounds eta * ||theta - omega*||^2
    nu    bounds eta * f
    xi    = 1 + b exp(B/a), the gate-inverse factor on clean rounds
    """

    G: float
    L: float
    psi: float
    phi: float
    kappa: float
    nu: float
    xi: float


# The kernels below take floats or arrays alike: a comparison times a value is
# that value where the comparison holds and zero elsewhere, in either type.

def _link(loss: RoundLoss, proj, y, out=None):
    """What a family's value and gradient coefficient read of proj = <x, theta>
    and y: the residual y - proj (ridge) or the margin y proj (hinge)."""
    return np.subtract(y, proj, out=out) if loss.family == RIDGE else np.multiply(y, proj, out=out)


def _link_value(loss: RoundLoss, u, sq, out=None):
    """The loss from u = _link(loss, proj, y) and sq = ||theta||^2. The hinge
    1 - u is positive exactly where u < 1."""
    reg = 0.5 * loss.lam * sq
    if loss.family == RIDGE:
        return np.add(reg, u * u, out=out)
    return np.add(reg, (u < _ONE) * (_ONE - u), out=out)


def _link_coef(loss: RoundLoss, u, y, out=None):
    """The c in grad_f = lam theta - c x from u = _link(loss, proj, y). At the
    hinge kink (margin exactly 1) c = 0, the zero-hinge branch; any
    subgradient is valid there."""
    if loss.family == RIDGE:
        return np.multiply(_TWO, u, out=out)
    return np.multiply(u < _ONE, y, out=out)


def _value(loss: RoundLoss, proj, sq, y):
    """The loss from proj = <x, theta>, sq = ||theta||^2 and y."""
    return _link_value(loss, _link(loss, proj, y), sq)


def _coef(loss: RoundLoss, proj, y):
    """The c in grad_f = lam theta - c x."""
    return _link_coef(loss, _link(loss, proj, y), y)


def _min_scale(loss: RoundLoss, nx2, y):
    """The c in the closed-form minimizer theta* = c x, from nx2 = ||x||^2.

    ridge:      c = 2 y / (lam + 2||x||^2)
    hinge_svm:  c = y / max(lam, ||x||^2), i.e. min(1/lam, 1/||x||^2) y for y = +-1
    """
    if loss.lam == 0.0 and not np.all(nx2):
        raise ValueError(f"degenerate {loss.family} instance: lam = 0 and x = 0")
    if loss.family == RIDGE:
        return 2.0 * y / (loss.lam + 2.0 * nx2)
    return y / (np.maximum(loss.lam, nx2) if isinstance(nx2, np.ndarray) else max(loss.lam, nx2))


def _transform(params: LearnParams, f):
    """The robust transform g of the loss f, -a log(b) - a log1p(exp(-f/a)/b):
    exact algebraically, and the exp underflow for huge f lands on the
    asymptote -a log(b)."""
    a, b = params.a, params.b
    return -a * math.log(b) - a * np.log1p(np.exp(-f / a) / b)


def _check_dims(s: SideInfo, theta: np.ndarray):
    if theta.shape != s.x.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs x {s.x.shape}")


def eval_f(loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> float:
    """Evaluate the per-round loss at theta. Always >= 0."""
    _check_dims(s, theta)
    return _value(loss, float(s.x @ theta), float(theta @ theta), s.y)


def grad_f(loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> np.ndarray:
    """(Sub)gradient of the per-round loss at theta; at the hinge kink, lam*theta."""
    _check_dims(s, theta)
    c = _coef(loss, float(s.x @ theta), s.y)
    g = loss.lam * theta
    return g - c * s.x if c else g   # c = 0 on an inactive hinge round: no array op


def _gate(params: LearnParams, f, out, z):
    """eta's formula into out, z a scratch: for losses known non-negative and,
    unless overflows are silenced, at most LearnParams._gate_operands[2]."""
    a, b, _ = params._gate_operands
    np.divide(f, a, out=out)
    np.multiply(b, np.exp(out, out=z), out=out)
    return np.divide(_ONE, np.add(_ONE, out, out=z), out=out)


def eta(params: LearnParams, f, out=None):
    """The gate 1/(1 + b exp(f/a)) of each loss of f, an array of any shape or
    a float (taken as a 0-d array), in (0, 1/(1+b)]: exactly 0 where exp(f/a)
    or b exp(f/a) overflows, and a ValueError on a negative loss. The gates go
    into out, of f's shape, when given. np.exp gives a loss the same bits
    whatever array, position or stride holds it, so each gate is that of its
    loss alone, bit for bit."""
    f = np.asarray(f)
    if np.count_nonzero(f < _ZERO):   # on a few losses, cheaper than a min or max reduction
        raise ValueError("loss values must be non-negative")
    out, z = np.empty(f.shape) if out is None else out, np.empty(f.shape)   # alternated: see the note on out
    if not np.count_nonzero(f > params._gate_operands[2]):   # no exp nor b exp overflows
        return _gate(params, f, out, z)
    with np.errstate(over="ignore"):   # an overflow to inf gives 1/(1 + inf) = 0 exactly
        return _gate(params, f, out, z)


def grad_g(params: LearnParams, loss: RoundLoss, s: SideInfo, theta: np.ndarray,
           f_val: float | None = None) -> np.ndarray:
    """Gradient of the robust transform: eta(f) * grad_f. f_val, when given, is
    eval_f(loss, s, theta), already evaluated by the caller."""
    f = eval_f(loss, s, theta) if f_val is None else f_val
    return eta(params, f) * grad_f(loss, s, theta)


def derive_constants(params: LearnParams, G: float, L: float, m: float, B: float = 0.0) -> ProblemConstants:
    """Fill the derived bound constants psi, phi, kappa, nu, xi from (a, b, G, L, m, B); only xi may be inf."""
    a, b = params.a, params.b
    if m <= 0:
        raise ValueError("strong convexity modulus m must be positive")
    if G < 0 or L < 0 or B < 0:
        raise ValueError("G, L, B must be non-negative")
    G, L = float(G), float(L)   # Python floats: an overflow gives inf, not a numpy warning
    try:
        psi = G + max(m * L / (2.0 * a * b), 4.0 * a * a * L / (m * m * b))
        phi = (1.0 / b) * max(m / (2.0 * a), 4.0 * a * a / (m * m))
        kappa = (1.0 / b) * max(m / (2.0 * a), 2.0 * a / m)
    except ZeroDivisionError:   # m * m underflowed to 0
        psi = phi = kappa = math.inf
    if not all(map(math.isfinite, (psi, phi, kappa))):
        raise ValueError(f"the bound constants psi, phi and kappa are not finite at m = {m!r} (a = {a!r}, b = {b!r})")
    try:
        xi = 1.0 + b * math.exp(B / a)
    except OverflowError:
        xi = math.inf
    return ProblemConstants(G=G, L=L, psi=psi, phi=phi, kappa=kappa, nu=params.nu, xi=xi)


def growth_constants(loss: RoundLoss, nx2, omega_norm):
    """(G, L) of the gradient growth ||grad_f(theta)|| <= G + L ||theta - omega*||
    on a round with nx2 = ||x||^2 and omega_norm = ||omega*||, floats or arrays.

    ridge:      G = 0, L = lam + 2||x||^2 (grad_f(omega*) = 0, and the Hessian's norm)
    hinge_svm:  G = lam ||omega*|| + ||x||, L = lam (||grad_f|| <= lam ||theta|| + ||x||)
    """
    if loss.family == RIDGE:
        return 0.0, loss.lam + 2.0 * nx2
    return loss.lam * omega_norm + np.sqrt(nx2), loss.lam


def eval_f_many(loss: RoundLoss, s: SideInfo, thetas: np.ndarray) -> np.ndarray:
    """Loss of one round at many actions; thetas has shape (N, d)."""
    return _value(loss, thetas @ s.x, np.einsum("ij,ij->i", thetas, thetas), s.y)


def grad_f_many(loss: RoundLoss, s: SideInfo, thetas: np.ndarray) -> np.ndarray:
    """(Sub)gradients of one round at many actions; shape (N, d)."""
    return loss.lam * thetas - _coef(loss, thetas @ s.x, s.y)[:, None] * s.x


def grad_f_rows(loss: RoundLoss, X: np.ndarray, y: np.ndarray, Theta: np.ndarray,
                proj: np.ndarray) -> np.ndarray:
    """(Sub)gradient of round t at action Theta[t], for all rounds; shape (T, d).
    proj holds <X[t], Theta[t]>, which a caller also forms for the loss value.
    Theta and proj may stack several actions per round, (L, T, d) and (L, T)."""
    return loss.lam * Theta - _coef(loss, proj, y)[..., None] * X


def minimizer_rows(loss: RoundLoss, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form minimizers for many rounds; X is (T, d), y is (T,)."""
    return _min_scale(loss, np.einsum("ij,ij->i", X, X), y)[:, None] * X


def eval_f_rows(loss: RoundLoss, X: np.ndarray, y: np.ndarray, Theta: np.ndarray) -> np.ndarray:
    """Loss of round t at action Theta[t], for all rounds; shape (T,). Theta
    may stack several actions per round, (..., T, d), for losses (..., T);
    each (T, d) slice gives the bits of its own (T, d) call."""
    return _value(loss, np.einsum("...ij,...ij->...i", X, Theta), np.einsum("...ij,...ij->...i", Theta, Theta), y)
