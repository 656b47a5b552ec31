import numpy as np
import pytest

from robust_oco import harness
from robust_oco.losses import RIDGE, LearnParams, RoundLoss, SideInfo, _min_scale, _transform, eval_f


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_instance(rng, family, lam=None, max_dim=6):
    """A random (loss, side-info) pair with moderate feature norms."""
    d = int(rng.integers(1, max_dim + 1))
    x = rng.standard_normal(d)
    x *= rng.uniform(0.3, 3.0) / np.linalg.norm(x)
    if family == RIDGE:
        y = float(rng.normal(0.0, 2.0))
    else:
        y = float(rng.choice([-1.0, 1.0]))
    lam = float(rng.uniform(1e-4, 2.0)) if lam is None else lam
    return RoundLoss(family=family, lam=lam), SideInfo(x=x, y=y)


def minimizer_f(loss: RoundLoss, s: SideInfo) -> np.ndarray:
    """Unconstrained minimizer of one round's loss: the one-round form of
    losses.minimizer_rows, through the same closed-form kernel."""
    return _min_scale(loss, float(s.x @ s.x), s.y) * s.x


def eval_g(params: LearnParams, loss: RoundLoss, s: SideInfo, theta: np.ndarray) -> float:
    """Robust transform g = -a log(exp(-f/a) + b) of one round's loss at theta,
    evaluated stably (see losses._transform). Monotone increasing in f; range
    [-a log(1+b), -a log(b))."""
    return float(_transform(params, eval_f(loss, s, theta)))


def capture_pools(monkeypatch):
    """Keep each expert pool harness.init_pool returns from now on, in order;
    run_episode returns no learner state, so the pool is read here."""
    pools = []
    init_pool = harness.init_pool

    def keep(*args, **kwargs):
        pools.append(init_pool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(harness, "init_pool", keep)
    return pools


def golden_minimize(fun, lo, hi, tol=1e-12, iters=200):
    """Plain golden-section minimizer over [lo, hi]; independent of any closed form."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)
