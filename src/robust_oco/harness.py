"""Episode runner and regret accounting.

An episode plays one learner against one corrupted stream for T rounds and
keeps what the regret accounting reads: the per-round losses, the path
length V_T and radius of the clean comparators, the adversary displacement
delta_S, and both comparator sets on the corrupted rounds only. Clean
dynamic regret sums f_t(s_t, theta_t) - f_t(s_t, theta_t*) over uncorrupted
rounds only, where theta_t* minimizes the clean-round loss (projected onto
the domain ball when the radius is finite).

A call takes one RunConfig and plays its own seeds. `run_cells(config,
learners, ks)` plays them under every (k, learner) cell of a sweep in one
pass: each seed's stream draws its clean rounds once and corrupts them once
per k, in time chunks that _chunk_rows sizes. A chunk feeds the pass's one
comparator accounting once, every seed and k as arrays: each comparator is a
scale of its round's features, theta_t* = c_t x_t, so its loss, its norm,
delta_S and (G, L) are read off the scales and ||x_t||^2, and only V_T's
steps form (R, d) rows. V_T, the comparator radius and (G, L) are the same
for every k, and each round's are accounted once, on a first draw of the
clean rounds alone under a theoretical step size, which needs them; delta_S
is a running maximum per k and seed. Then one loop for all the cells
advances the stacked (C, R, d) actions of C cells and R seeds per round and
keeps its state from chunk to chunk, then each cell's regret accounting
keeps the seeds' running sums and the cell's mean and standard error, not
the per-round losses. `run_episodes(config)` plays the same loop for one
cell and keeps each seed's whole EpisodeTrace instead; clean_dynamic_regret
and aggregate_runs read those, and the accounting of run_cells equals them
bit for bit. The loop uses the loss kernels and the gate of `losses` (_gate,
or the checked eta past a guard) and descend_rows of `learners` (the step of
learn_rows, the gated projected step that the oracle checks), and takes
every dot product as one BLAS dot per row, as the per-round functions do.
The gate gives each loss the bits it gives that loss alone, so each seed's
numbers equal those of ogd_step, learn_step or topk_filter_step on that seed
alone, bit for bit, whatever the chunking, the other seeds and the other
cells. An experts cell holds its seeds' pools as one stack, padded to the
largest seed's row count, which one pool_step per round advances and whose
aggregate_action is the cell's (R, d) block of actions; the pool takes the
sums that depend on a seed's row count over that seed's own rows, so each
seed's pool too is what it is alone, bit for bit.

What lives how long. _chunk_rows is a pass's one memory policy: it sizes the
time chunks so that a chunk's features and cell losses over all seeds, the
comparators' (rows, R, d) scratch and two (rows, K, R) arrays of comparator
scales hold at most CHUNK_BYTES. A pass allocates its working arrays once:
the chunk arrays _chunks refills (features, clean and emitted responses,
outlier masks; a theoretical step size's first draw has its own, freed
before the play), the comparator accounting's running figures and the
scratch in which it forms every seed's comparator rows of a chunk and then
their steps, and the play's buffers (see _Play). A chunk's own arrays are
its stream draws, its comparators' scales and losses, and the regret
reductions over it. A round of ogd or learn writes into the play's buffers
and allocates only (C, R) temporaries: the terms of its loss values (and
eta's scratch, past the guard). The Top-k cells share one filter state,
whose round adds (F, R) temporaries for its F cells and the rows it
rescans, not a set per cell; an expert pool's and a projection's round add
their own.

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
from .learners import descend_rows, theoretical_stepsize
from .learners import learn_step, ogd_step, topk_filter_step  # noqa: F401 (bench/tracing.py wraps these names here)
from .losses import eval_f, eval_f_rows, minimizer_rows  # noqa: F401 (bench/tracing.py wraps these names here)
from .losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    ProblemConstants,
    RoundLoss,
    _gate,
    _link,
    _link_coef,
    _link_value,
    _min_scale,
    _value,
    derive_constants,
    eta,
    growth_constants,
)

OGD = "ogd"
LEARN = "learn"
TOPK = "topk"
UTOPK = "utopk"
EXPERTS = "experts"
LEARNERS = (OGD, LEARN, TOPK, UTOPK, EXPERTS)

THEORETICAL = "theoretical"
MODEL_LOSS = {st.RIDGE_MODEL: RIDGE, st.SVM_MODEL: HINGE_SVM}   # the loss family of each data model

CHUNK_BYTES = 4 << 20   # a time chunk's working arrays in a pass (see _chunk_rows)

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
        if self.learner == EXPERTS and self.T < 2:
            raise ValueError("the expert pool needs T >= 2: at T = 1 its grid holds one expert, so log N = 0")

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
    delta_s: float                   # max over the corrupted rounds of ||omega_t* - theta_t*||, 0 when none
    comparator_radius: float         # max_t ||theta_t*||
    growth: tuple                    # (G, L): max_t of growth_constants on the emitted stream

    def __len__(self):
        return len(self.f_emitted)


@dataclass
class RegretCurve:
    """One seed's clean dynamic regret: its final value plus the run's path
    statistics. series, the cumulative regret of every round, is kept where a
    trace is (clean_dynamic_regret); a cell of many seeds keeps only their
    mean and standard error (CellResult), and its curves hold None. growth,
    the (G, L) of EpisodeTrace.growth for the seed, under any k, is set by run_cells."""

    series: np.ndarray | None
    v_t: float
    delta_s: float
    comparator_radius: float   # max_t ||theta_t*||
    b_clean: float             # max clean-round f_t(s_t, theta_t)
    n_outliers: int
    final: float | None = None   # series[-1] when not given
    growth: tuple | None = None

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


def _step_sizes(config: RunConfig, comparators: "_Comparators", rows: int) -> np.ndarray:
    """The step size: alpha, or 1/sqrt(T) when unset; under THEORETICAL each
    seed's, (R, 1), from the V_T and (G, L) that the pass's comparators
    account on a first draw of its clean rounds alone, in chunks of rows."""
    if config.alpha != THEORETICAL:
        return np.array(1.0 / math.sqrt(config.T) if config.alpha is None else config.alpha)
    for t0, X, y_clean, _, _ in _chunks(config, [], rows):
        comparators.path(t0, X, y_clean)
    psi = [derive_constants(config.params, *growth, m=config.lam).psi for growth in comparators.growth]
    return np.array([[theoretical_stepsize(config.radius, v_t, p, config.T)] for v_t, p in zip(comparators.v_t, psi)])


class _Comparators:
    """The comparator accounting of a pass: every seed under every k, fed
    chunk by chunk in round order with the stacked arrays _chunks fills.

    For both loss families theta_t* = c_t x_t (losses._min_scale) and omega_t*
    = c'_t x_t, with c'_t = c_t bit for bit on the rounds the adversary left
    alone; a finite radius scales c_t and c'_t. So every figure but V_T is read
    off the scales and ||x_t||^2, with no mask: as running maxima, each seed's
    largest ||theta_t*|| and (G, L) at the unprojected omega_t*, (R,) and
    (R, 2), and delta_S per k and seed, (K, R). V_T sums each seed's step
    norms, (R, T - 1), in one order whatever the chunking. A step is the norm
    of the difference of two rows c_t x_t (expanding the square would cancel
    when consecutive comparators are close), formed for every seed at once in a
    (rows + 1, R, d) scratch whose row 0 carries each seed's last theta* into
    the next chunk. path accounts V_T, the radius and (G, L) once per round.
    With keep, it also keeps what each k's and seed's EpisodeTrace holds: the
    outlier mask, f_t(s_t, theta_t*) on the emitted stream, and theta_t* and
    omega_t* on the corrupted rounds, (k, d) each.
    """

    def __init__(self, config: RunConfig, ks: list, rows: int, keep: bool = False):
        T, R, K, dim = config.T, len(config.seeds), len(ks), config.generator.dim
        self.loss, self.radius, self.keep = config.loss, config.radius, keep
        self.rounds = 0   # the rounds whose path figures are accounted
        self.steps = np.empty((R, T - 1))
        self.norm_max = np.zeros(R)
        self.growth = np.zeros((R, 2))
        self.delta_s = np.zeros((K, R))
        self.comp = np.zeros((rows + 1, R, dim))
        if keep:
            self.is_outlier = [[np.zeros(T, dtype=bool) for _ in config.seeds] for _ in ks]
            self.f_at_comparator = [[np.empty(T) for _ in config.seeds] for _ in ks]
            self.clean = [[np.empty((k, dim)) for _ in config.seeds] for k in ks]
            self.emitted = [[np.empty((k, dim)) for _ in config.seeds] for k in ks]

    def path(self, t0: int, X: np.ndarray, y_clean: np.ndarray):
        """Account the path figures of rounds t0 .. t0 + n - 1 from X and y_clean
        (see add), unless it has; returns c_t, ||x_t||^2 and ||x_t||, (n, R) each."""
        loss, radius, n = self.loss, self.radius, len(X)
        nx2 = np.einsum("nrd,nrd->nr", X, X)   # each row's sum as the per-seed einsum takes it
        norm_x, c = np.sqrt(nx2), _min_scale(loss, nx2, y_clean)
        omega = np.abs(c) * norm_x   # ||omega_t*|| under any k: the svm corruption only flips y's sign
        if math.isfinite(radius):   # onto the domain ball: a scale inside it is multiplied by exactly 1.0
            c *= radius / np.maximum(omega, radius)
        if t0 >= self.rounds:
            for i, bound in enumerate(growth_constants(loss, nx2, omega)):
                np.maximum(self.growth[:, i], np.broadcast_to(bound, c.shape).max(axis=0), out=self.growth[:, i])
            np.maximum(self.norm_max, (np.abs(c) * norm_x).max(axis=0), out=self.norm_max)
            comp = self.comp[:n + 1]   # V_T, in the difference form
            np.multiply(c[..., None], X, out=comp[1:])
            # each step lands behind the rows it still reads, so numpy reads them in place, with no copy
            step = np.subtract(comp[1:], comp[:-1], out=comp[:-1])[0 if t0 else 1:]   # round 1 has no step
            norms = np.add.reduce(np.multiply(step, step, out=step), axis=2)
            self.steps[:, max(t0 - 1, 0):t0 + n - 1] = np.sqrt(norms, out=norms).T
            comp[0] = comp[-1]
            self.rounds = t0 + n
        return c, nx2, norm_x

    def add(self, t0: int, X: np.ndarray, y_clean: np.ndarray, Y: np.ndarray, outlier: np.ndarray) -> np.ndarray:
        """Account rounds t0 .. t0 + n - 1 from the features X (n, R, d), the
        clean responses y_clean (n, R), each k's emitted ones Y (n, K, R) and
        outlier masks (K, R, n). Returns f_t(s_t, theta_t*) on the clean
        stream, (R, n), the emitted one on every round that clean regret counts."""
        c, nx2, norm_x = self.path(t0, X, y_clean)
        c_k = _min_scale(self.loss, nx2[:, None], Y)
        if math.isfinite(self.radius):
            c_k *= self.radius / np.maximum(np.abs(c_k) * norm_x[:, None], self.radius)
        proj = c * nx2   # <x_t, theta_t*>
        sq = c * proj    # ||theta_t*||^2
        f_star = _value(self.loss, proj, sq, y_clean)
        if self.keep:
            f = _value(self.loss, proj[:, None], sq[:, None], Y)
            for j, r in np.ndindex(self.delta_s.shape):
                idx, mask = np.flatnonzero(outlier[j, r]), self.is_outlier[j][r]
                m0 = np.count_nonzero(mask)
                mask[t0 + idx] = True
                self.f_at_comparator[j][r][t0:t0 + len(X)] = f[:, j, r]
                self.clean[j][r][m0:m0 + len(idx)] = c[idx, r, None] * X[idx, r]
                self.emitted[j][r][m0:m0 + len(idx)] = c_k[idx, j, r, None] * X[idx, r]
        shift = np.abs(np.subtract(c_k, c[:, None], out=c_k), out=c_k)   # into c', which nothing reads after
        shift *= norm_x[:, None]   # ||omega_t* - theta_t*||
        np.maximum(self.delta_s, shift.max(axis=0), out=self.delta_s)
        return f_star.T

    @property
    def v_t(self) -> np.ndarray:
        """Each seed's V_T, (R,)."""
        return self.steps.sum(axis=1)

    def trace(self, j: int, r: int, f_emitted: np.ndarray, theta: np.ndarray) -> EpisodeTrace:
        """The EpisodeTrace of the r-th seed under the j-th k; needs keep."""
        return EpisodeTrace(
            is_outlier=self.is_outlier[j][r],
            theta=theta,
            f_emitted=f_emitted,
            comparator_clean=self.clean[j][r],
            comparator_emitted=self.emitted[j][r],
            f_at_comparator=self.f_at_comparator[j][r],
            v_t=float(self.steps[r].sum()),
            delta_s=float(self.delta_s[j, r]),
            comparator_radius=float(self.norm_max[r]),
            growth=tuple(self.growth[r].tolist()),
        )


def _chunk_rows(config: RunConfig, cells: int, K: int) -> int:
    """Rounds per time chunk of a pass of that many cells and K k's, the
    pass's one memory policy: a chunk's features and cell losses over all
    seeds, the comparators' (rows, R, d) scratch and two (rows, K, R) arrays
    of comparator scales hold at most CHUNK_BYTES, and a chunk holds at
    least one round."""
    R, dim = len(config.seeds), config.generator.dim
    return min(config.T, max(1, CHUNK_BYTES // (8 * R * (2 * dim + cells + 2 * K))))


def _chunks(config: RunConfig, ks: list, rows: int, watch=None):
    """The streams of the config's seeds, each drawn once for every k of ks,
    in lockstep time chunks of rows rounds. Each seed's part of a chunk goes
    to watch(stream, t0, X, y_clean, emitted), if given, and into arrays
    refilled for every chunk: the features (rounds, R, d), the clean
    responses (rounds, R), each k's emitted responses (rounds, K, R) and each
    k's outlier mask (K, R, rounds). Yields (t0, X, y_clean, Y, outlier)."""
    R, K, dim = len(config.seeds), len(ks), config.generator.dim
    streams = [st.EpisodeStream(config.generator, config.T, ks, seed) for seed in config.seeds]
    X, y_clean, Y = np.empty((rows, R, dim)), np.empty((rows, R)), np.empty((rows, K, R))
    outlier = np.empty((K, R, rows), dtype=bool)
    for t0 in range(0, config.T, rows):
        n = min(rows, config.T - t0)
        outlier[:] = False
        for r, stream in enumerate(streams):
            x, y, emitted = stream.draw(n)
            if watch is not None:
                watch(stream, t0, x, y, emitted)
            X[:n, r], y_clean[:n, r] = x, y
            for j, (y_emitted, idx) in enumerate(emitted):
                Y[:n, j, r] = y_emitted
                outlier[j, r, idx] = True
        yield t0, X[:n], y_clean[:n], Y[:n], outlier[..., :n]


class _Filter:
    """The Top-k filters of a pass's topk and utopk cells as one state, called
    once a round after the step has formed the gradient. Its rows are the
    cells' (cell, seed) pairs in (k, learner, seed) order: run_cells takes
    each learner once, so a round's norms are one vecdot over a strided view
    of the gradient, (K, P, R) for the P such learners, and one masked copy
    over the same view of the actions keeps the filtered rows' own. A row of
    budget 0 is never filtered.

    Each row keeps its budget largest norms, -inf where empty, in any order
    (only their multiset counts), at its own offset of one flat buffer,
    padded with +inf to the widest row up to 1024 slots, packed past that.
    In warm-up a row is filtered and fills one slot a round (one fancy
    assignment for all rows; a nan is never stored); at its budget's round
    it caches its minimum's slot and twice its value. twice is nan until
    then and at budget 0, so one comparison decides every row: a norm under
    twice steps, one at or over it is filtered and replaces the minimum. The
    replaced rows and those ending warm-up rescan in one call a round: one
    argmin of more than 4 gathered padded rows, else one argmin per row in
    place, which copies nothing."""

    def __init__(self, cells: list, per_k: int, g: np.ndarray):
        places = [i for i, cell in enumerate(cells[:per_k]) if cell.learner in (TOPK, UTOPK)]
        self.shape, self.group = (-1, per_k, *g.shape[1:]), slice(places[0], places[-1] + 1, places[-1] - places[0] or 1)
        self.g = g.reshape(self.shape)[:, self.group]
        budgets = np.array([cell.resolve_topk_budget() for cell in cells]).reshape(-1, per_k)[:, self.group]
        b = np.repeat(budgets.ravel(), g.shape[1])
        width = int(b.max())
        self.padded = width <= 1024
        if self.padded:
            self.off, self.rows = np.arange(len(b)) * width, np.where(np.arange(width) < b[:, None], -np.inf, np.inf)
            self.top = self.rows.reshape(-1)
        else:
            self.off, self.top = np.cumsum(b) - b, np.full(b.sum(), -np.inf)
        self.pos, self.spans = self.off.copy(), list(zip(self.off.tolist(), (self.off + b).tolist()))
        budget = b.tolist()
        warm = np.array(sorted(np.flatnonzero(b).tolist(), key=budget.__getitem__, reverse=True), dtype=np.intp)
        self.warm, self.warm_off, self.fill = warm, self.off[warm], 0   # the rows in warm-up, budget descending
        self.ends = {k - 1: np.flatnonzero(b == k) for k in set(budget) if k}   # not np.unique: it imports numpy.ma
        self.n, self.twice = np.full((2, *budgets.shape, g.shape[1]), np.nan)
        self.n_flat, self.live = self.n.reshape(-1), np.broadcast_to((budgets > 0)[..., None], self.n.shape)
        self.kept, self.grow = np.empty((2, *self.n.shape), dtype=bool)
        self.kept_x = self.kept[..., None]

    def __call__(self, theta: np.ndarray, new: np.ndarray):
        n, flat, twice, t, top, warm = self.n, self.n_flat, self.twice, self.fill, self.top, self.warm
        np.sqrt(np.vecdot(self.g, self.g, out=n), out=n)
        np.less(np.less(n, twice, out=self.kept), self.live, out=self.kept)   # live and not stepped
        rows = np.flatnonzero(np.greater_equal(n, twice, out=self.grow))
        if len(warm):
            top[self.warm_off[:len(warm)] + t] = np.fmax(flat.take(warm), -np.inf)
        if len(rows):
            top[self.pos[rows]] = flat[rows]
        if t in self.ends:
            self.warm = warm[:len(warm) - len(self.ends[t])]
            rows = np.concatenate((rows, self.ends[t]))
        self.fill = t + 1
        if len(rows):
            self._cache(rows)
        np.copyto(new.reshape(self.shape)[:, self.group], theta.reshape(self.shape)[:, self.group], where=self.kept_x)

    def _cache(self, rows):
        twice = self.twice.reshape(-1)
        if self.padded and len(rows) > 4:
            pos = self.off[rows]
            pos += self.rows.take(rows, axis=0).argmin(axis=1)
            self.pos[rows] = pos
            twice[rows] = 2.0 * self.top[pos]
            return
        for r in rows.tolist():
            start, end = self.spans[r]
            self.pos[r] = j = start + self.top[start:end].argmin()
            twice[r] = 2.0 * self.top[j]


class _Play:
    """The loop of C cells over all their seeds at once, one stacked (C, R, d)
    update per round for R seeds, fed chunk by chunk in round order. The cells
    are K groups of per_k consecutive cells, each group one k under each of
    the cells' per_k learners; alpha holds one step size, or each seed's, (R,
    1), for every cell. Keeps the actions played in round T, (C, R, d). Each
    round's features, (1, R, d), broadcast against the stack, and every dot
    product is one BLAS dot per row, as eval_f and grad_f take it.

    step forms one gradient for every block, as grad_f_rows forms it, lam
    theta - c x, from the coefficient c = _link_coef of the link: ogd descends
    on it as it is, learn on it scaled by its gate in place (one gate for
    every learn block, on one strided view of the losses: losses._gate on a
    round the guard passes, else the checked losses.eta), and a Top-k row
    only where the pass's one _Filter lets the round through; a filtered row
    keeps its action by one masked copy for every Top-k cell. An experts cell's block is what its stacked pool
    aggregates after one pool_step for all its seeds. Each row gets what
    ogd_step, learn_step, topk_filter_step or the pool makes of that seed
    alone, bit for bit.

    Its buffers are allocated once and live for the pass: the actions theta
    and the next actions the step writes, (C, R, d) each, swapped every
    round; the gradient, (C, R, d); each chunk's losses, (C, R, rows), which
    feed returns and the next chunk overwrites; a round's <x, theta>,
    ||theta||^2, link u, losses, their check and the coefficient c, (C, R)
    each, which that round alone reads (its losses are then copied into their
    column of the chunk's); the gates and their scratch, (K, R) each, if
    learn is played; the one filter state of the Top-k cells; and the guard's bound, the gate's
    overflow threshold on a learn cell, else the largest finite float. The
    next actions hold c x before descend_rows writes the step into them, so
    a round allocates no array of the stack's size. Each k's responses
    broadcast over its per_k cells through (K, per_k, R) views of the round's
    arrays."""

    def __init__(self, cells: list, alpha: np.ndarray, rows: int):
        config = cells[0]
        C, R, dim = len(cells), len(config.seeds), config.generator.dim
        per_k = len({cell.learner for cell in cells})
        self.cells, self.per_k, self.alpha = cells, per_k, alpha
        self.loss, self.params, self.radius = config.loss, config.params, config.radius
        self.lam = np.array(config.lam)   # a 0-d operand: see losses._ONE
        self.theta, self.spare, self.g = np.zeros((C, R, dim)), np.empty((C, R, dim)), np.empty((C, R, dim))
        self.losses = np.empty((C, R, rows))
        self.proj, self.sq, self.u, self.f, c = np.empty((5, C, R))
        self.c_k, self.c_x = c.reshape(-1, per_k, R), c[..., None]
        self.passed = np.empty((C, R), dtype=bool)
        bound = [cell.params._gate_operands[2] if cell.learner == LEARN else np.finfo(float).max for cell in cells]
        self.bound = np.repeat(np.array(bound), R).reshape(C, R).view(np.uint64)
        budgets = [cell.resolve_topk_budget() for cell in cells]
        self.filter = _Filter(cells, per_k, self.g) if any(budgets) else None
        self.pools = [(i, i // per_k, _expert_pool(cell)) for i, cell in enumerate(cells) if cell.learner == EXPERTS]
        self.descends = len(self.pools) < C
        # every learn block as one strided view of the gradient, which the gates of the same view of the
        # losses scale in place: run_cells takes each learner once, so learn has one place in each k's group
        learn = [i for i, cell in enumerate(cells) if cell.learner == LEARN]
        gated = slice(learn[0], None, per_k) if learn else slice(0)   # slice(0): no block, an empty view
        self.learn, self.g_learn, self.f_learn = bool(learn), self.g[gated], self.f[gated]
        self.gates, self.z = np.empty((2, len(learn), R))
        self.gates_x = self.gates[..., None]

    def step(self, theta: np.ndarray, new: np.ndarray, x: np.ndarray, y: np.ndarray, u: np.ndarray, fast: bool):
        """Write the next actions into new and return it, from the actions
        theta, side information x (1, R, d), responses y (K, 1, R), link u
        (K, per_k, R) and the round's losses in self.f, unchecked if fast
        (see feed). Keeps neither theta nor new."""
        g, loss, params = self.g, self.loss, self.params
        if self.descends:
            np.multiply(self.lam, theta, out=g)
            _link_coef(loss, u, y, out=self.c_k)
            np.subtract(g, np.multiply(self.c_x, x, out=new), out=g)
            if self.learn:
                _gate(params, self.f_learn, self.gates, self.z) if fast else eta(params, self.f_learn, out=self.gates)
                np.multiply(self.g_learn, self.gates_x, out=self.g_learn)
            descend_rows(theta, g, self.alpha, self.radius, out=new)
        if self.filter:
            self.filter(theta, new)
        for i, j, pool in self.pools:
            pool_step(pool, x[0], y[j, 0], loss, params)
            new[i] = aggregate_action(pool)
        return new

    def feed(self, t0: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Play rounds t0 .. t0 + n - 1 on the features X, (n, R, d), and each
        k's responses Y, (n, K, R); returns f_t(s_t, theta_t) of every
        cell, seed and round, (C, R, n), a view of the play's loss buffer,
        valid until the next feed.

        Raises RuntimeError naming the learner, k, seed and round of the
        earliest non-finite loss (the first cell, then the first seed, on a
        tie), before any step of that round. One comparison of the losses'
        bits with the bound's guards a round (a nan, an inf or a sign bit,
        -0.0 too, fails it); one that fails is checked, and gated by eta."""
        cells, step, theta, spare, proj, sq, u, f, passed = (
            self.cells, self.step, self.theta, self.spare, self.proj, self.sq, self.u, self.f, self.passed)
        T, loss, bits, bound = cells[0].T, self.loss, f.view(np.uint64), self.bound
        proj_k, u_k = proj.reshape(-1, self.per_k, proj.shape[1]), u.reshape(-1, self.per_k, u.shape[1])
        all_passed = b"\x01" * passed.size   # the bytes of an all-True mask: one comparison checks every loss
        f_chunk = self.losses[..., :len(X)]
        for t, x, y, column in zip(range(t0, T), X[:, None], Y[:, :, None], np.moveaxis(f_chunk, -1, 0)):
            np.vecdot(x, theta, out=proj)
            _link(loss, proj_k, y, out=u_k)
            _link_value(loss, u, np.vecdot(theta, theta, out=sq), out=f)
            fast = np.less_equal(bits, bound, out=passed).tobytes() == all_passed
            if not fast and np.isfinite(f, out=passed).tobytes() != all_passed:
                i, r = np.unravel_index(passed.argmin(), passed.shape)   # the first in (cell, seed) order
                cell = cells[i]
                raise RuntimeError(f"learner {cell.learner}, k {cell.k}, seed {cell.seeds[r]}: non-finite loss "
                                   f"at round {t + 1} of {T}; the run diverged")
            column[...] = f
            if t + 1 < T:   # theta stays the action played in round T
                theta, spare = step(theta, spare, x, y, u_k, fast), theta
        self.theta, self.spare = theta, spare
        return f_chunk


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
        it overwrites, f at the comparators, (R, n), and each k's outlier
        mask, (K, R, n), which applies to its group of C / K cells."""
        n, R = f.shape[-1], f.shape[1]
        f_k, outlier = f.reshape(len(outlier), -1, R, n), outlier[:, None]   # f_k: a (K, C / K, R, n) view
        np.maximum(self.b_clean, np.max(f_k, axis=-1, where=~outlier, initial=0.0).reshape(-1, R), out=self.b_clean)
        terms = np.subtract(f, f_star, out=f)
        np.copyto(f_k, 0.0, where=outlier)
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
    """One pass of every (k, learner) cell over the config's seeds: each
    chunk _chunks draws feeds the pass's one comparator accounting, then the
    play, then the regret accounting. Returns the cells, in k order and then
    learner order; the comparator accounting; the play, which holds the
    actions of round T; and each cell's _Regret or, with keep, f_t(s_t,
    theta_t) of every cell, seed and round, (C, R, T)."""
    cells = [replace(config, k=k, learner=learner) for k in ks for learner in learners]
    if not cells:
        raise ValueError("run_cells needs at least one learner and one k")
    if len(set(learners)) < len(learners):
        raise ValueError(f"run_cells takes each learner once, not {list(learners)}")
    if len(set(ks)) < len(ks):
        raise ValueError(f"run_cells takes each k once, not {ks}")
    R, rows = len(config.seeds), _chunk_rows(config, len(cells), len(ks))
    comparators = _Comparators(config, ks, rows, keep)
    play = _Play(cells, _step_sizes(config, comparators, rows), rows)
    sink = np.empty((len(cells), R, config.T)) if keep else _Regret(len(cells), R, config.T)
    for t0, X, y_clean, Y, outlier in _chunks(config, ks, rows, watch):
        f_star = comparators.add(t0, X, y_clean, Y, outlier)
        f = play.feed(t0, X, Y)
        if keep:
            sink[..., t0:t0 + len(X)] = f
        else:
            sink.add(t0, f, f_star, outlier)
    return cells, comparators, play, sink


def _episodes(cells: list) -> list:
    """Each cell's EpisodeTraces of its seeds, in order. The cells are one
    config under several learners: one draw of each seed's stream and one
    comparator accounting feed one play of every cell's stacked actions,
    chunk by chunk, and the learners' traces of a seed share its accounting's
    arrays."""
    config = cells[0]
    _, comparators, play, f_emitted = _run(config, [cell.learner for cell in cells], [config.k], keep=True)
    return [[comparators.trace(0, r, f, th) for r, (f, th) in enumerate(zip(fs, ths))]
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


def clean_dynamic_regret(trace: EpisodeTrace) -> RegretCurve:
    """Cumulative clean dynamic regret; corrupted rounds contribute zero."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    terms = np.where(trace.is_outlier, 0.0, trace.f_emitted - trace.f_at_comparator)
    clean = ~trace.is_outlier
    return RegretCurve(
        series=np.cumsum(terms),
        v_t=trace.v_t,
        delta_s=trace.delta_s,
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
    """Play the config under each k of ks (default: the config's own k) and each
    of the learners, on one draw of its seeds' clean streams (after a first
    draw of the clean rounds alone, under a theoretical step size), corrupted
    once per k, one comparator accounting and one loop, and account each cell's
    regret chunk by chunk. Returns one CellResult per (k, learner), in k order
    and then learner order, whose config is replace(config, k=k,
    learner=learner) and which equals what run_cell gives on that config alone.
    watch(stream, t0, X, y_clean, emitted), if given, sees each seed's part of
    every chunk the play draws.

    Raises ValueError on no learners, no k, a learner or a k given twice, or
    a cell the setting does not admit (RunConfig's own checks), before any
    stream is drawn. A diverged run raises RuntimeError naming the learner,
    k, seed and round of the earliest non-finite loss over all cells and
    seeds (the first k given, then the first learner, then the first seed,
    on a tie), before any step of that round.
    """
    ks = [config.k] if ks is None else list(ks)
    cells, comparators, play, regret = _run(config, learners, ks, watch=watch)
    v_t, growth, results = comparators.v_t, comparators.growth.tolist(), []
    for i, cell in enumerate(cells):
        j = i // len(learners)
        curves = [RegretCurve(series=None, final=float(regret.total[i, r]), v_t=float(v_t[r]),
                              delta_s=float(comparators.delta_s[j, r]),
                              comparator_radius=float(comparators.norm_max[r]),
                              b_clean=float(regret.b_clean[i, r]), n_outliers=cell.k, growth=tuple(growth[r]))
                  for r in range(len(config.seeds))]
        results.append(CellResult(config=cell, curves=curves, final_thetas=list(play.theta[i]),
                                  mean=regret.mean[i], stderr=regret.stderr[i]))
    return results


def run_cell(config: RunConfig) -> CellResult:
    """Run every seed of the cell in one batch and aggregate; see run_cells."""
    return run_cells(config, [config.learner])[0]


def run_theorem_check(seed: int) -> list:
    """verify's theorem check of the seed: a theoretical-step-size ridge run at T = 200 in a
    ball of radius 5 for k = 0, 14 and 34 (k_grid(200)[:3]), in one run_cells pass, checked
    against the clean-dynamic-regret bound. Returns one (BoundCheck, RegretCurve,
    ProblemConstants) per k, in that order.

    G and L are each run's own (for ridge, G = 0 and L = lam + 2 max_t ||x_t||^2,
    the Hessian bound, which does not involve y), and B is its measured b_clean.
    """
    config = preset_config("ridge", T=200, seeds=[seed], learner=LEARN, radius=5.0, alpha=THEORETICAL)
    ks = st.k_grid(config.T)[:3]
    curves = [result.curves[0] for result in run_cells(config, [LEARN], ks)]   # the bound reads k off the curve
    constants = [derive_constants(config.params, *curve.growth, m=config.lam, B=curve.b_clean) for curve in curves]
    return [(check_regret_bound(curve, c, config), curve, c) for curve, c in zip(curves, constants)]


def preset_config(family: str, **overrides) -> RunConfig:
    """The PRESETS entry of `family` with learner learn, k = 0, seeds 1..30,
    alpha = 1/sqrt(T) and an unbounded domain, then the overrides."""
    if family not in PRESETS:
        raise ValueError(f"unknown preset {family!r}")
    return RunConfig(**{"learner": LEARN, "k": 0, "seeds": list(range(1, 31)), **PRESETS[family], **overrides})
