"""Online learners sharing a step interface: vanilla OGD, the robust
gated-gradient learner (projected descent on the transformed loss), and the
Top-k gradient-norm filter baselines.

All step functions mutate the passed state in place and return it. A state is
single-owner: independent runs may execute concurrently, but one state must
not be stepped from two places at once. The row steps descend_rows and
learn_rows take many actions at once, one per row, and return new arrays
(descend_rows writes into a given out instead).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import _ONE, _TINY, LearnParams, RoundLoss, SideInfo, eta, grad_f, grad_f_rows, grad_g


@dataclass
class LearnerState:
    """Current action, domain radius (math.inf for unbounded) and step size.

    top_norms is the Top-k filter's buffer of the k largest observed gradient
    norms, kept as a min-heap; unused by the other learners.
    """

    theta: np.ndarray
    step_size: float
    radius: float = math.inf
    top_norms: list = field(default_factory=list)

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive (use math.inf for unbounded)")


def project_ball(theta: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball of the given radius.

    Returns theta itself when it is already inside or the radius is infinite.
    """
    if radius == math.inf:
        return theta
    if radius <= 0:
        raise ValueError("radius must be positive")
    norm = math.sqrt(float(theta @ theta))
    if norm <= radius:
        return theta
    return theta * (radius / norm)


def project_rows(thetas: np.ndarray, radii, sq: np.ndarray | None = None) -> np.ndarray:
    """Project each row of thetas, (n, d) or a stack of them, onto the
    origin-centered ball of its radius, in place; radii is one radius for all
    rows or one per row (math.inf for unbounded). sq, when given, holds the
    squared row norms. Returns the row norms before projection, by default
    summed in the order np.linalg.norm(thetas, axis=-1) sums them."""
    norms = np.sqrt(np.add.reduce(thetas * thetas, axis=-1) if sq is None else sq)
    outside = norms > radii
    if np.count_nonzero(outside):   # a row inside its ball would be multiplied by exactly 1.0
        thetas *= np.where(outside, radii / np.maximum(norms, _TINY), _ONE)[..., None]
    return norms


def descend_rows(theta: np.ndarray, g: np.ndarray, alpha, radius, out: np.ndarray | None = None) -> np.ndarray:
    """theta - alpha g for every row, projected as ogd_step and learn_step
    project one action. theta is (n, d) or a stack of them; alpha is one step
    size or one per row, (n, 1); radius is one radius or one per row, (n,),
    math.inf where unbounded. The new rows go into out when given (neither
    theta nor g), else into a new array."""
    new = np.subtract(theta, np.multiply(alpha, g, out=out), out=out)
    if isinstance(radius, np.ndarray) or radius < math.inf:
        project_rows(new, radius, np.vecdot(new, new))   # squared norms as project_ball sums them
    return new


def learn_rows(theta: np.ndarray, x: np.ndarray, y: np.ndarray, proj: np.ndarray, f: np.ndarray,
               loss: RoundLoss, params: LearnParams, alpha, radius) -> np.ndarray:
    """learn_step of every row at once: the projected step on the gated
    gradient eta(f) grad_f from the actions theta (n, d), the side information
    x (n, d) and y (n,), proj = <x, theta> and the losses f (n,) at theta;
    alpha and radius as in descend_rows. Each row equals learn_step's, bit for
    bit: both gate with losses.eta."""
    g = grad_f_rows(loss, x, y, theta, proj)
    g *= eta(params, f)[:, None]
    return descend_rows(theta, g, alpha, radius)


def ogd_step(state: LearnerState, s: SideInfo, loss: RoundLoss) -> LearnerState:
    """Projected gradient step on the raw loss."""
    g = grad_f(loss, s, state.theta)
    state.theta = project_ball(state.theta - state.step_size * g, state.radius)
    return state


def learn_step(state: LearnerState, s: SideInfo, loss: RoundLoss, params: LearnParams,
               f_val: float | None = None) -> LearnerState:
    """Projected gradient step on the transformed loss (gated gradient eta * grad_f).

    f_val, when given, is the loss at state.theta, already evaluated by the caller.
    """
    g = grad_g(params, loss, s, state.theta, f_val)
    state.theta = project_ball(state.theta - state.step_size * g, state.radius)
    return state


def topk_filter_step(state: LearnerState, s: SideInfo, loss: RoundLoss, k: int):
    """Top-k filter step. Returns (state, filtered).

    Maintains the k largest gradient norms seen. The incoming round updates
    only when its gradient norm n is strictly below twice the buffer minimum;
    otherwise the round is filtered and n replaces the minimum if larger.
    Rounds arriving before the buffer is full are filtered (treated as
    potential outliers). k = 0 degenerates to plain OGD, never filtered.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ogd_step(state, s, loss), False
    g = grad_f(loss, s, state.theta)
    n = math.sqrt(float(g @ g))
    buf = state.top_norms
    if len(buf) < k:
        heapq.heappush(buf, n)
        return state, True
    if n < 2.0 * buf[0]:
        state.theta = project_ball(state.theta - state.step_size * g, state.radius)
        return state, False
    if n > buf[0]:
        heapq.heapreplace(buf, n)
    return state, True


def theoretical_stepsize(D: float, V_T: float, psi: float, T: int) -> float:
    """Constant step size sqrt((4 D^2 + 6 D V_T) / (psi^2 T)) from the regret analysis."""
    if D <= 0 or psi <= 0 or T <= 0 or not psi * psi < math.inf:   # else the step size would be 0 or nan
        raise ValueError(f"D, psi and T must be positive and psi^2 finite, got D = {D:g}, psi = {psi:g}, T = {T}")
    if V_T < 0:
        raise ValueError("V_T must be non-negative")
    return math.sqrt((4.0 * D * D + 6.0 * D * V_T) / (psi * psi * T))
