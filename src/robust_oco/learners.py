"""Online learners sharing a step interface: vanilla OGD, the robust
gated-gradient learner (projected descent on the transformed loss), and the
Top-k gradient-norm filter baselines.

All step functions mutate the passed state in place and return it. A state is
single-owner: independent runs may execute concurrently, but one state must
not be stepped from two places at once. gated_step, the one gated projected
step of many actions at once, one per row, writes into a given buffer; the
runs, the expert pool and the oracle's update-property check all take it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import _ONE, _TINY, LearnParams, RoundLoss, SideInfo, grad_f, grad_g


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


def gated_step(theta: np.ndarray, x: np.ndarray, c: np.ndarray, lam, gates, alpha, radius,
               out: np.ndarray, g: np.ndarray | None = None, gated=Ellipsis) -> np.ndarray | None:
    """The gated projected step of every row, as learn_step takes it for one
    action: the gradient g = lam theta - c x, its rows g[gated] times their
    gates, then theta - alpha g, each row projected onto its ball as
    project_ball projects one action. theta is (n, d) or a stack of them and
    x broadcasts against it; c (_link_coef), the gates and alpha hold one
    value per row, (n, 1), alpha possibly one for all; radius is one radius
    or one per row, (n,), math.inf where unbounded. The step goes into out
    and the gradient into g, a new array if None; neither may be theta.
    Returns the row norms before projection, None at one infinite radius."""
    np.multiply(c, x, out=out)   # c x, in the buffer the step then writes
    g = np.subtract(np.multiply(lam, theta, out=g), out, out=g)
    gated_rows = g[gated]
    np.multiply(gated_rows, gates, out=gated_rows)
    np.subtract(theta, np.multiply(alpha, g, out=out), out=out)
    if isinstance(radius, np.ndarray) or radius < math.inf:
        return project_rows(out, radius, np.vecdot(out, out))   # squared norms as project_ball sums them
    return None


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
