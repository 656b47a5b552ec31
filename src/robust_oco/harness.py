"""Episode runner and regret accounting.

An episode plays one learner against one corrupted stream for T rounds and
keeps what the regret accounting reads: the per-round losses, the path
length V_T and radius of the clean comparators, and both comparator sets on
the corrupted rounds only, for the adversary displacement delta_S. Clean
dynamic regret sums f_t(s_t, theta_t) - f_t(s_t, theta_t*) over uncorrupted
rounds only, where theta_t* minimizes the clean-round loss (projected onto
the domain ball when the radius is finite).

A call takes one RunConfig and plays its own seeds. `run_cells(config,
learners, ks)` plays them under every (k, learner) cell of a sweep in one
pass: each seed's stream draws its clean rounds once and corrupts them once
per k, in time chunks of at most CHUNK_BYTES of features and cell losses
over all seeds. A
chunk feeds each seed's comparator accounting once (theta_t*, V_T and the
comparator radius are the same for every k; (G, L) and delta_S are running
maxima per k), then one loop for all the cells, which advances the stacked
(C, R, d) actions of C cells and R seeds per round and keeps its state from
chunk to chunk, then each cell's regret accounting, which keeps the seeds'
running sums and the cell's mean and standard error, not the per-round
losses. `run_episodes(config)` plays the same loop for one cell and keeps
each seed's whole EpisodeTrace instead; clean_dynamic_regret and
aggregate_runs read those, and the accounting of run_cells equals them bit
for bit. The loop uses the loss kernels of `losses` and the row steps of
`learners` (descend_rows, and gate_rows, the gate of learn_rows, the gated
projected step that the oracle checks), takes every dot product as one BLAS
dot per row and the gate's exp from libm per seed, as the per-round
functions do, so each seed's numbers equal those of ogd_step, learn_step or
topk_filter_step on that seed alone, bit for bit, whatever the chunking, the
other seeds and the other cells. An experts cell holds its seeds' pools as
one stack, padded to the largest seed's row count, which one pool_step per
round advances and whose aggregate_action is the cell's (R, d) block of
actions; the pool takes the sums that depend on a seed's row count over that
seed's own rows, so each seed's pool too is what it is alone, bit for bit.
In the theoretical step mode the step size needs each seed's V_T and each
k's G and L, so the comparators are accounted in a first pass and the
streams redrawn once for all cells.

What the paper's experiments fix is derived here, not set: the Top-k budget
(k for topk, floor(0.75 k) for utopk), the expert grid (A_max = max(sqrt(T),
2), epsilon = 1, beta = sqrt(8 log N / (T nu^2))) and the loss family, that
of the data model (RunConfig.loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stream as st
from .experts import aggregate_action, beta_default, build_grid, init_pool, pool_step
from .learners import descend_rows, gate_rows, project_rows, theoretical_stepsize
from .learners import learn_step, ogd_step, topk_filter_step  # noqa: F401 (bench/tracing.py wraps these names here)
from .losses import eval_f  # noqa: F401 (bench/tracing.py wraps this name here)
from .losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    ProblemConstants,
    RoundLoss,
    _min_scale,
    _value,
    derive_constants,
    eval_f_rows,
    grad_f_rows,
    growth_constants,
    minimizer_rows,
)

OGD = "ogd"
LEARN = "learn"
TOPK = "topk"
UTOPK = "utopk"
EXPERTS = "experts"
LEARNERS = (OGD, LEARN, TOPK, UTOPK, EXPERTS)

THEORETICAL = "theoretical"
MODEL_LOSS = {st.RIDGE_MODEL: RIDGE, st.SVM_MODEL: HINGE_SVM}   # the loss family of each data model

CHUNK_BYTES = 4 << 20   # features and cell losses per time chunk of a pass, summed over the seeds

# The paper's two experiments, keyed by data model: every preset value lives
# here, and each config of a preset shares its frozen params and generator.
PRESETS = {
    st.RIDGE_MODEL: dict(T=10 ** 5, lam=1e-4, params=LearnParams(a=10.0, b=10.0),
                         generator=st.CleanGenerator(kind=st.RIDGE_MODEL, dim=100, feature_std=1.0,
                                                     noise_std=1e-3)),
    st.SVM_MODEL: dict(T=10 ** 4, lam=1e-4, params=LearnParams(a=1e4, b=10.0),
                       generator=st.CleanGenerator(kind=st.SVM_MODEL, dim=2, feature_std=10.0,
                                                   mislabel_prob=0.05, margin_band=0.1)),
}


@dataclass
class RunConfig:
    """Everything one (learner, k) cell needs, including the seed list."""

    T: int
    lam: float                           # the loss's regularization weight, its strong convexity modulus m
    params: LearnParams
    generator: st.CleanGenerator
    learner: str
    k: int
    seeds: list
    radius: float = math.inf
    alpha: float | str | None = None     # fixed step size, None for 1/sqrt(T), or THEORETICAL

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.learner not in LEARNERS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if not (0 <= self.k <= self.T):
            raise ValueError("need 0 <= k <= T")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite: it is the strong convexity modulus m of the "
                             "bound constants")
        if self.alpha not in (None, THEORETICAL) and (
                isinstance(self.alpha, str) or not (math.isfinite(self.alpha) and self.alpha > 0)):
            raise ValueError(f"alpha must be finite and positive, None or {THEORETICAL!r}, "
                             f"got {self.alpha!r}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive (inf for unbounded), got {self.radius!r}")
        if self.alpha == THEORETICAL and not math.isfinite(self.radius):
            raise ValueError("theoretical step size needs a finite domain radius")
        if self.learner == EXPERTS and self.alpha is not None:
            raise ValueError("the expert pool takes its step sizes from its grid: alpha must be unset")
        if self.learner == EXPERTS and math.isfinite(self.radius):
            raise ValueError("the expert pool takes its radii from its grid: radius must be inf (unbounded)")

    @property
    def loss(self) -> RoundLoss:
        """The loss family of the data model, with regularization weight lam."""
        return RoundLoss(family=MODEL_LOSS[self.generator.kind], lam=self.lam)

    def resolve_topk_budget(self) -> int:
        """The gradient norms a Top-k filter keeps: k for topk, floor(0.75 k) for utopk, 0 otherwise."""
        return {TOPK: self.k, UTOPK: int(math.floor(0.75 * self.k))}.get(self.learner, 0)


@dataclass
class EpisodeTrace:
    """What the regret accounting reads of one episode. Row t-1 of a (T,)
    array belongs to round t; the comparator arrays hold the k corrupted
    rounds only, in round order."""

    is_outlier: np.ndarray           # (T,)
    theta: np.ndarray                # (d,) the action played in round T
    f_emitted: np.ndarray            # (T,) f_t(s_t, theta_t) on the emitted stream
    comparator_clean: np.ndarray     # (k, d) theta_t* on the corrupted rounds
    comparator_emitted: np.ndarray   # (k, d) omega_t*, the emitted-stream minimizer
    f_at_comparator: np.ndarray      # (T,) f_t(s_t, theta_t*) on the emitted stream
    v_t: float                       # sum_t ||theta_t* - theta_{t+1}*||
    comparator_radius: float         # max_t ||theta_t*||
    growth: tuple                    # (G, L): max_t of growth_constants on the emitted stream

    def __len__(self):
        return len(self.f_emitted)


@dataclass
class RegretCurve:
    """One seed's clean dynamic regret: its final value plus the run's path
    statistics. series, the cumulative regret of every round, is kept where a
    trace is (clean_dynamic_regret); a cell of many seeds keeps only their
    mean and standard error (CellResult), and its curves hold None."""

    series: np.ndarray | None
    v_t: float
    delta_s: float
    comparator_radius: float   # max_t ||theta_t*||
    b_clean: float             # max clean-round f_t(s_t, theta_t)
    n_outliers: int
    final: float | None = None   # series[-1] when not given

    def __post_init__(self):
        if self.final is None:
            self.final = float(self.series[-1])


@dataclass
class BoundCheck:
    holds: bool
    measured: float
    bound: float


def _expert_pool(config: RunConfig):
    """A fresh Algorithm-2 pool for each seed, stacked, over one shared (step
    size, radius) grid of A_max = max(sqrt(T), 2) and epsilon = 1, with beta
    = sqrt(8 log N / (T nu^2))."""
    grid = build_grid(max(math.sqrt(config.T), 2.0), 1.0, config.T)
    beta = beta_default(grid.n, config.T, config.params.nu)
    return init_pool(grid, config.generator.dim, beta, len(config.seeds))


def _resolve_alpha(config: RunConfig, v_t: float | None = None, growth: tuple | None = None) -> float:
    """The step size; the theoretical one needs the episode's V_T and (G, L)."""
    if config.alpha == THEORETICAL:
        psi = derive_constants(config.params, *growth, m=config.lam).psi
        return theoretical_stepsize(config.radius, v_t, psi, config.T)
    if config.alpha is not None:
        return config.alpha
    return 1.0 / math.sqrt(config.T)


class _Comparators:
    """One seed's comparator accounting under each k of its stream, fed chunk
    by chunk in round order; a chunk's comparators do not outlive its `add`.

    Per seed: the step norms ||theta_t* - theta_{t+1}*|| (summed once, so V_T
    sums in one order whatever the chunking) and the largest ||theta_t*||.
    Per k, as running maxima: (G, L) of the emitted rounds and delta_S, the
    largest ||omega_t* - theta_t*|| over the corrupted rounds. With keep, it
    also keeps what each k's EpisodeTrace holds: the outlier mask, f_t(s_t,
    theta_t*) on the emitted stream, and theta_t* and omega_t* on the
    corrupted rounds, (k, d) each.
    """

    def __init__(self, config: RunConfig, ks: list, keep: bool = False):
        T, dim = config.T, config.generator.dim
        self.loss, self.radius, self.ks, self.keep = config.loss, config.radius, ks, keep
        self.steps = np.empty(T - 1)
        self.norm_max = 0.0
        self.last = np.empty((0, dim))   # theta* of the round before the chunk
        self.n_corrupted = [0] * len(ks)   # each k's corrupted rounds accounted so far
        self.growth = np.zeros((len(ks), 2))
        self.delta_s = np.zeros(len(ks))
        if keep:
            self.is_outlier = [np.zeros(T, dtype=bool) for _ in ks]
            self.f_at_comparator = [np.empty(T) for _ in ks]
            self.clean = [np.empty((k, dim)) for k in ks]
            self.emitted = [np.empty((k, dim)) for k in ks]

    def _minimizers(self, X: np.ndarray, y: np.ndarray, nx2: np.ndarray) -> np.ndarray:
        """theta* of each row, from nx2 = ||x_t||^2, projected onto the domain
        ball when the radius is finite."""
        comp = minimizer_rows(self.loss, X, y, nx2)
        if math.isfinite(self.radius):
            project_rows(comp, self.radius)
        return comp

    def _growth(self, nx2: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(G, L) of each round, (2, n), from nx2 = ||x_t||^2 and the responses y."""
        omega_norm = np.abs(_min_scale(self.loss, nx2, y)) * np.sqrt(nx2)
        growth = np.empty((2, len(nx2)))
        growth[0], growth[1] = growth_constants(self.loss, nx2, omega_norm)
        return growth

    def add(self, t0: int, X: np.ndarray, y_clean: np.ndarray, emitted: list) -> np.ndarray:
        """Account rounds t0 .. t0 + len(X) - 1 under every k; emitted holds
        each k's (y_emitted, the chunk's corrupted rows). Returns f_t(s_t,
        theta_t*) on the clean stream, the emitted one on every round that
        clean regret counts. Raises ValueError when a k is fed more corrupted
        rounds than it has."""
        t1 = t0 + len(X)
        nx2 = np.einsum("ij,ij->i", X, X)
        comp = self._minimizers(X, y_clean, nx2)
        f_star = eval_f_rows(self.loss, X, y_clean, comp)
        self.norm_max = max(self.norm_max, float(np.linalg.norm(comp, axis=1).max()))
        step = np.diff(np.concatenate((self.last, comp)), axis=0)
        step *= step   # squared in place: np.linalg.norm's row sums without its temporary
        self.steps[t1 - 1 - len(step):t1 - 1] = np.sqrt(np.add.reduce(step, axis=1))
        self.last = comp[-1:].copy()   # not a view that would keep the chunk's comparators
        clean_growth = self._growth(nx2, y_clean)
        for j, (y, idx) in enumerate(emitted):
            m0, m1 = self.n_corrupted[j], self.n_corrupted[j] + len(idx)
            if m1 > self.ks[j]:
                raise ValueError(f"{m1} corrupted rounds fed to the accounting of k = {self.ks[j]}")
            self.n_corrupted[j] = m1
            omega = self._minimizers(X[idx], y[idx], nx2[idx])
            diff = np.linalg.norm(omega - comp[idx], axis=1)
            self.delta_s[j] = max(self.delta_s[j], diff.max(initial=0.0))
            growth = clean_growth.copy()
            growth[:, idx] = self._growth(nx2[idx], y[idx])
            self.growth[j] = np.maximum(self.growth[j], growth.max(axis=1))
            if self.keep:
                self.is_outlier[j][t0 + idx] = True
                f = self.f_at_comparator[j][t0:t1]
                f[:] = f_star
                f[idx] = eval_f_rows(self.loss, X[idx], y[idx], comp[idx])
                self.clean[j][m0:m1], self.emitted[j][m0:m1] = comp[idx], omega
        return f_star

    @property
    def v_t(self) -> float:
        return float(self.steps.sum())

    def trace(self, j: int, f_emitted: np.ndarray, theta: np.ndarray) -> EpisodeTrace:
        """The EpisodeTrace under the j-th k; needs keep."""
        return EpisodeTrace(
            is_outlier=self.is_outlier[j],
            theta=theta,
            f_emitted=f_emitted,
            comparator_clean=self.clean[j],
            comparator_emitted=self.emitted[j],
            f_at_comparator=self.f_at_comparator[j],
            v_t=self.v_t,
            comparator_radius=self.norm_max,
            growth=tuple(self.growth[j].tolist()),
        )


def _chunks(config: RunConfig, ks: list, cells: int, accounts: list, watch=None):
    """The streams of the config's seeds, each drawn once for every k of ks,
    in lockstep time chunks of at most CHUNK_BYTES, over all seeds, of the
    features and of the losses of a play of that many cells (at least one
    round each). Each seed's part of a chunk goes to its accounting, if any,
    and to watch(stream, t0, X, y_clean, emitted), if given, and into arrays
    refilled for every chunk: the features (rounds, R, d), each k's emitted
    responses (rounds, K, R), f_t(s_t, theta_t*) on the clean stream (R,
    rounds; filled by the accounting) and each k's outlier mask (K, R,
    rounds). Yields (t0, X, Y, f_star, outlier)."""
    R, K, dim = len(config.seeds), len(ks), config.generator.dim
    rows = min(config.T, max(1, CHUNK_BYTES // (R * (dim + cells) * 8)))
    streams = [st.EpisodeStream(config.generator, config.T, ks, seed) for seed in config.seeds]
    X, Y = np.empty((rows, R, dim)), np.empty((rows, K, R))
    f_star, outlier = np.empty((R, rows)), np.empty((K, R, rows), dtype=bool)
    for t0 in range(0, config.T, rows):
        n = min(rows, config.T - t0)
        outlier[:] = False
        for r, stream in enumerate(streams):
            x, y_clean, emitted = stream.draw(n)
            if watch is not None:
                watch(stream, t0, x, y_clean, emitted)
            if accounts is not None:
                f_star[r, :n] = accounts[r].add(t0, x, y_clean, emitted)
            X[:n, r] = x
            for j, (y, idx) in enumerate(emitted):
                Y[:n, j, r] = y
                outlier[j, r, idx] = True
        yield t0, X[:n], Y[:n], f_star[:, :n], outlier[..., :n]


def _stepper(cells: list, alpha: np.ndarray):
    """The step of a play's stacked actions, one (R, d) block per cell:
    step(theta, x, y, proj, f) returns the next (C, R, d) actions from this
    round's actions, side information x (1, R, d) and each cell's y (C, R),
    proj = <x, theta> and losses f, (C, R). One grad_f_rows and one
    descend_rows serve every block: ogd descends as it is, learn on the
    gradient scaled by its gate (one learners.gate_rows for all learn
    blocks), and a Top-k seed only where its filter lets the round through; a
    filtered seed keeps its action by selection. An experts cell's block is
    what its stacked pool aggregates after one pool_step for all its seeds.
    Each row gets what ogd_step, learn_step, topk_filter_step or the pool
    makes of that seed alone, bit for bit."""
    config = cells[0]
    loss, params, radius = config.loss, config.params, config.radius
    rows = np.arange(len(config.seeds))
    gated, filters, pools = [], [], []
    for i, cell in enumerate(cells):
        budget = cell.resolve_topk_budget()
        if cell.learner == LEARN:
            gated.append(i)
        elif cell.learner == EXPERTS:
            pools.append((i, _expert_pool(cell)))
        elif budget:   # each seed's `budget` largest gradient norms; -inf is empty
            filters.append((i, np.full((len(rows), budget), -np.inf)))
    descends = len(pools) < len(cells)
    if gated:   # one learn block per k of a sweep: evenly spaced, so a slice scales them in place
        gap = gated[1] - gated[0] if len(gated) > 1 else 1
        if gated == list(range(gated[0], gated[-1] + 1, gap)):
            gated = slice(gated[0], gated[-1] + 1, gap)

    def step(theta, x, y, proj, f):
        new = theta
        if descends:
            g = grad_f_rows(loss, x, y, theta, proj)
            if gated:
                g[gated] *= gate_rows(params, f[gated])[..., None]
            new = descend_rows(theta, g, alpha, radius)
        for i, top in filters:
            # a round before the buffer is full meets low = -inf: filtered, it fills an empty slot
            n = np.sqrt(np.vecdot(g[i], g[i]))
            j = top.argmin(axis=1)
            low = top[rows, j]
            update = n < 2.0 * low
            grow = ~update & (n > low)
            top[rows[grow], j[grow]] = n[grow]   # replacing a minimum keeps the heap's multiset
            new[i] = np.where(update[:, None], new[i], theta[i])
        for i, pool in pools:
            pool_step(pool, x[0], y[i], loss, params)
            new[i] = aggregate_action(pool)
        return new

    return step


class _Play:
    """The loop of C cells over all their seeds at once, one stacked (C, R, d)
    update per round for R seeds, fed chunk by chunk in round order. The cells
    are K groups of per_k consecutive cells, each group one k; alpha holds
    each cell's and seed's step size, broadcast to (C, R, 1). Keeps the
    actions played in round T, (C, R, d). Each round's features, (1, R, d),
    broadcast against the stack, and every dot product is one BLAS dot per
    row, as eval_f and grad_f take it."""

    def __init__(self, cells: list, alpha: np.ndarray, per_k: int):
        config = cells[0]
        self.cells, self.per_k = cells, per_k
        self.theta = np.zeros((len(cells), len(config.seeds), config.generator.dim))
        self.step = _stepper(cells, alpha)

    def feed(self, t0: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Play rounds t0 .. t0 + n - 1 on the features X, (n, R, d), and each
        k's responses Y, (n, K, R); returns f_t(s_t, theta_t) of every
        cell, seed and round, (C, R, n).

        Raises RuntimeError naming the learner, k, seed and round of the
        earliest non-finite loss (the first cell, then the first seed, on a
        tie), before any step of that round."""
        cells, theta, step, per_k = self.cells, self.theta, self.step, self.per_k
        T, loss = cells[0].T, cells[0].loss
        f_emitted = np.empty(theta.shape[:2] + (len(X),))
        for t, x, y in zip(range(t0, T), X[:, None], Y):
            if per_k > 1:
                y = y.repeat(per_k, axis=0)   # each cell's responses, (C, R)
            proj = np.vecdot(x, theta)
            f = _value(loss, proj, np.vecdot(theta, theta), y)
            finite = np.isfinite(f)
            if np.count_nonzero(finite) < f.size:   # the first non-finite row in (cell, seed) order
                i, r = np.unravel_index(finite.argmin(), finite.shape)
                cell = cells[i]
                raise RuntimeError(f"learner {cell.learner}, k {cell.k}, seed {cell.seeds[r]}: non-finite loss "
                                   f"at round {t + 1} of {T}; the run diverged")
            f_emitted[..., t - t0] = f
            if t + 1 < T:   # theta stays the action played in round T
                theta = step(theta, x, y, proj, f)
        self.theta = theta
        return f_emitted


class _Regret:
    """The clean dynamic regret of C cells over R seeds, fed chunk by chunk
    in round order. Keeps each seed's cumulative regret so far and its
    largest clean-round loss, (C, R) each, and each cell's mean and standard
    error over its seeds, (C, T) each. A chunk's terms f_t(s_t, theta_t) -
    f_t(s_t, theta_t*), 0 on a corrupted round, are summed on from the carry
    and reduced over the seeds as clean_dynamic_regret and aggregate_runs
    take them on the whole (R, T) stack, bit for bit."""

    def __init__(self, C: int, R: int, T: int):
        self.T = T
        self.total = np.zeros((C, R))
        self.b_clean = np.zeros((C, R))   # every loss is >= 0: 0 stands for no clean round yet
        self.mean, self.stderr = np.zeros((C, T)), np.zeros((C, T))

    def add(self, t0: int, f: np.ndarray, f_star: np.ndarray, outlier: np.ndarray):
        """Account rounds t0 .. t0 + n - 1 from the losses f, (C, R, n), which
        it overwrites, f at the comparators, (R, n), and the outlier masks,
        (C, R, n)."""
        n, R = f.shape[-1], f.shape[1]
        np.maximum(self.b_clean, np.max(f, axis=-1, where=~outlier, initial=0.0), out=self.b_clean)
        terms = np.subtract(f, f_star, out=f)
        terms[outlier] = 0.0
        if t0:
            terms[..., 0] += self.total
        np.cumsum(terms, axis=-1, out=terms)
        self.total = terms[..., -1].copy()
        if n == 1 < self.T:   # one column reduces pairwise; the (R, T) stack reduces seed by seed
            terms = np.concatenate((terms, terms), axis=-1)
        # mean and std(ddof=1) over the seeds as numpy takes them, the deviations squared in place
        mean = np.add.reduce(terms, axis=1, keepdims=True)
        mean /= R
        self.mean[:, t0:t0 + n] = mean[:, 0, :n]
        if R > 1:
            terms -= mean
            terms *= terms
            var = np.add.reduce(terms, axis=1)
            var /= R - 1
            self.stderr[:, t0:t0 + n] = (np.sqrt(var) / math.sqrt(R))[:, :n]


def _run(config: RunConfig, learners, ks: list, keep: bool = False, watch=None):
    """One pass of every (k, learner) cell over the config's seeds. Returns
    the cells, in k order and then learner order; each seed's accounting;
    the play, which holds the actions of round T; and each cell's _Regret or,
    with keep, f_t(s_t, theta_t) of every cell, seed and round, (C, R, T)."""
    cells = [replace(config, k=k, learner=learner) for k in ks for learner in learners]
    if not cells:
        raise ValueError("run_cells needs at least one learner and one k")
    R, L = len(config.seeds), len(learners)
    accounts = [_Comparators(config, ks, keep) for _ in config.seeds]
    chunks = _chunks(config, ks, len(cells), accounts, watch)
    if config.alpha == THEORETICAL:
        # the step size needs V_T, G and L: account a first draw, keeping the
        # comparators' losses, then redraw the streams to play
        f_stars = [f_star.copy() for *_, f_star, _ in _chunks(config, ks, len(cells), accounts)]
        alpha = np.array([[_resolve_alpha(config, acc.v_t, acc.growth[j]) for acc in accounts]
                          for j in range(len(ks))])
        alpha = np.repeat(alpha, L, axis=0)[..., None]
        chunks = ((t0, X, Y, f_star, outlier) for f_star, (t0, X, Y, _, outlier)
                  in zip(f_stars, _chunks(config, ks, len(cells), None, watch)))
    else:
        alpha = np.array(_resolve_alpha(config))
    play = _Play(cells, alpha, L)
    sink = np.empty((len(cells), R, config.T)) if keep else _Regret(len(cells), R, config.T)
    for t0, X, Y, f_star, outlier in chunks:
        f = play.feed(t0, X, Y)
        if keep:
            sink[..., t0:t0 + len(X)] = f
        else:
            sink.add(t0, f, f_star, np.repeat(outlier, L, axis=0))
    return cells, accounts, play, sink


def _episodes(cells: list) -> list:
    """Each cell's EpisodeTraces of its seeds, in order. The cells are one
    config under several learners: one draw of each seed's stream and one
    comparator pass feed one play of every cell's stacked actions, chunk by
    chunk, and the learners' traces of a seed share its accounting's arrays."""
    config = cells[0]
    _, accounts, play, f_emitted = _run(config, [cell.learner for cell in cells], [config.k], keep=True)
    return [[acc.trace(0, f, th) for acc, f, th in zip(accounts, fs, ths)]
            for fs, ths in zip(f_emitted, play.theta)]


def run_episodes(config: RunConfig) -> list:
    """Play the config's episode on each of its seeds and return what their
    regret accounting reads, one EpisodeTrace per seed of config.seeds, in
    order.

    Raises RuntimeError naming the learner, k, seed and round of the batch's
    earliest non-finite loss (a diverged run; the first such seed on a tie),
    before any step of that round.
    """
    return _episodes([config])[0]


def run_episode(config: RunConfig, seed: int) -> EpisodeTrace:
    """The episode of the config on one seed; see run_episodes."""
    return run_episodes(replace(config, seeds=[seed]))[0]


def delta_S(trace: EpisodeTrace) -> float:
    """Max over corrupted rounds of ||omega_t* - theta_t*||; 0 when none."""
    diff = trace.comparator_emitted - trace.comparator_clean
    return float(np.linalg.norm(diff, axis=1).max(initial=0.0))


def clean_dynamic_regret(trace: EpisodeTrace) -> RegretCurve:
    """Cumulative clean dynamic regret; corrupted rounds contribute zero."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    terms = np.where(trace.is_outlier, 0.0, trace.f_emitted - trace.f_at_comparator)
    clean = ~trace.is_outlier
    return RegretCurve(
        series=np.cumsum(terms),
        v_t=trace.v_t,
        delta_s=delta_S(trace),
        comparator_radius=trace.comparator_radius,
        b_clean=float(trace.f_emitted[clean].max()) if np.any(clean) else 0.0,
        n_outliers=int(trace.is_outlier.sum()),
    )


def aggregate_runs(curves: list):
    """Pointwise mean and standard error (sample std / sqrt(R)) across runs."""
    if not curves:
        raise ValueError("need at least one curve")
    series = [c.series for c in curves]
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise ValueError("curves have mismatched lengths")
    stacked = np.stack(series)
    mean = stacked.mean(axis=0)
    if len(series) == 1:
        return mean, np.zeros(length)
    stderr = stacked.std(axis=0, ddof=1) / math.sqrt(len(series))
    return mean, stderr


def check_regret_bound(curve: RegretCurve, constants: ProblemConstants, config: RunConfig) -> BoundCheck:
    """Compare the measured final clean regret against the theoretical bound

        xi * ( psi sqrt((4 D^2 + 6 D V_T) T) + k (G phi + L kappa)
               + k (G + L phi) delta_S ).

    Only valid for runs that used the matching theoretical step size.
    """
    if config.alpha != THEORETICAL:
        raise ValueError(f"bound check requires a run with alpha={THEORETICAL!r}")
    D = config.radius
    T = config.T
    k = curve.n_outliers
    bound = constants.xi * (
        constants.psi * math.sqrt((4.0 * D * D + 6.0 * D * curve.v_t) * T)
        + k * (constants.G * constants.phi + constants.L * constants.kappa)
        + k * (constants.G + constants.L * constants.phi) * curve.delta_s
    )
    measured = curve.final
    return BoundCheck(holds=bool(measured <= bound), measured=measured, bound=bound)


@dataclass
class CellResult:
    """All seeds of one (learner, k) cell plus the aggregated curve."""

    config: RunConfig
    curves: list
    final_thetas: list
    mean: np.ndarray
    stderr: np.ndarray


def run_cells(config: RunConfig, learners, ks=None, watch=None) -> list:
    """Play the config under each k of ks (default: the config's own k) and
    each of the learners, on one draw of its seeds' clean streams, corrupted
    once per k, one comparator pass and one loop, and account each cell's
    regret chunk by chunk. Returns one CellResult per (k, learner), in k
    order and then learner order, whose config is replace(config, k=k,
    learner=learner) and which equals what run_cell gives on that config
    alone. watch(stream, t0, X, y_clean, emitted), if given, sees each seed's
    part of every chunk the play draws.

    Raises ValueError on no learners, no k, or a cell the setting does not
    admit (RunConfig's own checks), before any stream is drawn. A diverged
    run raises RuntimeError naming the learner, k, seed and round of the
    earliest non-finite loss over all cells and seeds (the first k given,
    then the first learner, then the first seed, on a tie), before any step
    of that round.
    """
    ks = [config.k] if ks is None else list(ks)
    cells, accounts, play, regret = _run(config, learners, ks, watch=watch)
    results = []
    for i, cell in enumerate(cells):
        j = i // len(learners)
        curves = [RegretCurve(series=None, final=float(regret.total[i, r]), v_t=acc.v_t,
                              delta_s=float(acc.delta_s[j]), comparator_radius=acc.norm_max,
                              b_clean=float(regret.b_clean[i, r]), n_outliers=cell.k)
                  for r, acc in enumerate(accounts)]
        results.append(CellResult(config=cell, curves=curves, final_thetas=list(play.theta[i]),
                                  mean=regret.mean[i], stderr=regret.stderr[i]))
    return results


def run_cell(config: RunConfig) -> CellResult:
    """Run every seed of the cell in one batch and aggregate; see run_cells."""
    return run_cells(config, [config.learner])[0]


def run_theorem_check(T: int = 200, k: int = 0, seed: int = 1, radius: float = 5.0):
    """One theoretical-step-size ridge run inside a ball, checked against the
    clean-dynamic-regret bound. Returns (BoundCheck, RegretCurve, ProblemConstants).

    G and L are the episode's own (for ridge, G = 0 and L = lam + 2 max_t
    ||x_t||^2, the Hessian bound, which does not involve y), and B is the
    measured clean-round loss bound b_clean.
    """
    config = preset_config("ridge", T=T, seeds=[seed], learner=LEARN, k=k, radius=radius,
                           alpha=THEORETICAL)
    trace = run_episode(config, seed)
    curve = clean_dynamic_regret(trace)
    constants = derive_constants(config.params, *trace.growth, m=config.lam, B=curve.b_clean)
    return check_regret_bound(curve, constants, config), curve, constants


def preset_config(family: str, **overrides) -> RunConfig:
    """The PRESETS entry of `family` with learner learn, k = 0, seeds 1..30,
    alpha = 1/sqrt(T) and an unbounded domain, then the overrides."""
    if family not in PRESETS:
        raise ValueError(f"unknown preset {family!r}")
    return RunConfig(**{"learner": LEARN, "k": 0, "seeds": list(range(1, 31)), **PRESETS[family], **overrides})
