"""Reference episode loop for the benchmark's output checks.

Written from the paper's formulas and the package's documented stream rule,
not from the package code: one master seed spawns six substreams
(SeedSequence(seed).spawn(6): theta*, features, noise, mislabel, outliers,
corruption), each drawn in block order. It replays one seed of one
(learner, k) cell of a preset and returns the final clean dynamic regret,
which the checks compare with the program's manifest.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# The two presets the workloads run (README "Presets" table).
PRESETS = {
    "ridge": dict(d=100, lam=1e-4, a=10.0, b=10.0),
    "svm": dict(d=2, lam=1e-4, a=1e4, b=10.0),
}


def draw_stream(preset: str, seed: int, T: int, k: int):
    """Emitted (X, y) and the outlier mask of one seeded episode."""
    d = PRESETS[preset]["d"]
    r_star, r_feat, r_noise, r_mis, r_out, r_corr = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(6))
    if preset == "ridge":
        v = r_star.uniform(-1.0, 1.0, d)
        theta_star = v / np.linalg.norm(v)
        X = r_feat.standard_normal((T, d))
        y = X @ theta_star + 1e-3 * r_noise.standard_normal(T)
    else:
        theta_star = r_star.uniform(1.0, 11.0, d)
        X = 10.0 * r_feat.standard_normal((T, d))
        dot = X @ theta_star
        y = np.where(dot >= 0.0, 1.0, -1.0)
        u = r_mis.uniform(size=T)
        y[(np.abs(dot) <= 0.1) & (u < 0.05)] *= -1.0
    idx = np.sort(r_out.choice(T, size=k, replace=False))
    outlier = np.zeros(T, dtype=bool)
    outlier[idx] = True
    if preset == "ridge":
        y[idx] = r_corr.uniform(size=k)
    else:
        y[idx] = -y[idx]
    return X, y, outlier


def loss(preset: str, lam: float, x, y: float, theta) -> float:
    reg = 0.5 * lam * float(theta @ theta)
    p = float(x @ theta)
    if preset == "ridge":
        r = y - p
        return reg + r * r
    return reg + max(0.0, 1.0 - y * p)


def grad(preset: str, lam: float, x, y: float, theta):
    p = float(x @ theta)
    if preset == "ridge":
        return lam * theta - (2.0 * (y - p)) * x
    return lam * theta - y * x if y * p < 1.0 else lam * theta


def minimizer(preset: str, lam: float, x, y: float):
    nx2 = float(x @ x)
    if preset == "ridge":
        return (2.0 * y / (lam + 2.0 * nx2)) * x
    return (min(1.0 / lam, 1.0 / nx2) * y) * x


def gate(a: float, b: float, f: float) -> float:
    """eta = 1 / (1 + b exp(f / a)), taken as 0 where exp overflows."""
    try:
        z = b * math.exp(f / a)
    except OverflowError:
        return 0.0
    return 0.0 if math.isinf(z) else 1.0 / (1.0 + z)


def gates(a: float, b: float, f: np.ndarray) -> np.ndarray:
    """The gate over an array of loss values."""
    with np.errstate(over="ignore"):
        z = b * np.exp(f / a)
    return np.where(np.isinf(z), 0.0, 1.0 / (1.0 + z))


def _single_learner(preset, learner, k, T):
    """Closure playing OGD, the gated learner or a Top-k filter."""
    c = PRESETS[preset]
    lam, a, b, alpha = c["lam"], c["a"], c["b"], 1.0 / math.sqrt(T)
    budget = {"topk": k, "utopk": int(math.floor(0.75 * k))}.get(learner, 0)
    theta = np.zeros(c["d"])
    heap = []

    def play():
        return theta

    def observe(x, y):
        nonlocal theta
        g = grad(preset, lam, x, y, theta)
        if learner == "learn":
            g = gate(a, b, loss(preset, lam, x, y, theta)) * g
        elif budget > 0:
            n = math.sqrt(float(g @ g))
            if len(heap) < budget:
                heapq.heappush(heap, n)
                return
            if n >= 2.0 * heap[0]:
                if n > heap[0]:
                    heapq.heapreplace(heap, n)
                return
        theta = theta - alpha * g

    return play, observe


def _expert_pool(preset, T):
    """Closure playing Algorithm 2 over the (step size, radius) grid."""
    c = PRESETS[preset]
    lam, a, b = c["lam"], c["a"], c["b"]
    a_max = max(math.sqrt(T), 2.0)
    steps = list(dict.fromkeys(min(2.0 ** i, a_max) / math.sqrt(T)
                               for i in range(1, math.ceil(math.log2(a_max)) + 1)))
    radii = []
    for j in range(1, T + 1):
        r = 2.0 ** j / T if j < 1024 else math.inf
        if r not in radii[-1:]:
            radii.append(r)
    alphas = np.repeat(steps, len(radii))
    bounds = np.tile(radii, len(steps))
    n = alphas.size
    nu = max(a, 1.0 / a) / b
    beta = math.sqrt(8.0 * math.log(n) / (T * nu * nu))
    thetas = np.zeros((n, c["d"]))
    log_w = np.zeros(n)

    def play():
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        return w @ thetas

    def observe(x, y):
        nonlocal thetas
        p = thetas @ x
        reg = 0.5 * lam * np.einsum("ij,ij->i", thetas, thetas)
        if preset == "ridge":
            r = y - p
            f = reg + r * r
            coef = 2.0 * r
        else:
            f = reg + np.maximum(0.0, 1.0 - y * p)
            coef = np.where(y * p < 1.0, y, 0.0)
        etas = gates(a, b, f)
        g = lam * thetas - coef[:, None] * x[None, :]
        thetas = thetas - (alphas * etas)[:, None] * g
        norms = np.sqrt(np.einsum("ij,ij->i", thetas, thetas))
        over = norms > bounds
        thetas[over] *= (bounds[over] / norms[over])[:, None]
        log_w[:] -= beta * float(etas.min()) * f

    return play, observe


def final_regret(preset: str, learner: str, k: int, T: int, seed: int) -> float:
    """Clean dynamic regret after T rounds: the sum over uncorrupted rounds of
    f_t(theta_t) - f_t(theta_t*), theta_t* the round's exact minimizer."""
    X, y, outlier = draw_stream(preset, seed, T, k)
    lam = PRESETS[preset]["lam"]
    if learner == "experts":
        play, observe = _expert_pool(preset, T)
    else:
        play, observe = _single_learner(preset, learner, k, T)
    total = 0.0
    for t in range(T):
        x, yt = X[t], float(y[t])
        theta = play()
        if not outlier[t]:
            total += loss(preset, lam, x, yt, theta) - loss(preset, lam, x, yt, minimizer(preset, lam, x, yt))
        observe(x, yt)
    return total
