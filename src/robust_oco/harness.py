"""Episode runner and regret accounting.

An episode plays one learner against one corrupted stream for T rounds and
keeps what the regret accounting reads: the per-round losses, the path
length V_T and radius of the clean comparators, and both comparator sets on
the corrupted rounds only, for the adversary displacement delta_S. Clean
dynamic regret sums f_t(s_t, theta_t) - f_t(s_t, theta_t*) over uncorrupted
rounds only, where theta_t* minimizes the clean-round loss (projected onto
the domain ball when the radius is finite).

A call takes one RunConfig and plays its own seeds: `run_episodes(config)`
gives one trace per seed of config.seeds, and `run_cells(config, learners)`
plays those seeds under each of the learners. Each seed's stream is drawn
once, in time chunks of at most CHUNK_BYTES of features over all seeds; a
chunk feeds every seed's comparator accounting, then one loop for all the
learners (a single learner is a stack of one), which advances the stacked
(L, R, d) actions of L learners and R seeds per round and keeps its state
from chunk to chunk. The loop uses the loss kernels of `losses` and the row
steps of `learners` (descend_rows, and gate_rows, the gate of learn_rows,
the gated projected step that the oracle checks), takes every dot product as
one BLAS dot per row and the gate's exp from libm per seed, as the per-round
functions do, so each seed's numbers equal those of ogd_step, learn_step or
topk_filter_step on that seed alone, bit for bit, whatever the chunking, the
other seeds and the other learners. The expert pool's row count varies by
seed, so each seed keeps a pool of its own, stepped by pool_step, and its
row of actions is that pool's aggregate_action. In the theoretical step mode
the step size needs the stream's V_T, G and L, so the comparators are
accounted in a first pass and the streams redrawn once for all learners.

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
    SideInfo,
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

CHUNK_BYTES = 4 << 20   # features per time chunk of run_episodes, summed over the seeds

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
    """Cumulative clean dynamic regret plus the run's path statistics."""

    series: np.ndarray
    v_t: float
    delta_s: float
    comparator_radius: float   # max_t ||theta_t*||
    b_clean: float             # max clean-round f_t(s_t, theta_t)
    n_outliers: int

    @property
    def final(self) -> float:
        return float(self.series[-1])


@dataclass
class BoundCheck:
    holds: bool
    measured: float
    bound: float


def _expert_pools(config: RunConfig) -> list:
    """A fresh Algorithm-2 pool per seed over one shared (step size, radius)
    grid of A_max = max(sqrt(T), 2) and epsilon = 1, with beta =
    sqrt(8 log N / (T nu^2))."""
    grid = build_grid(max(math.sqrt(config.T), 2.0), 1.0, config.T)
    beta = beta_default(grid.n, config.T, config.params.nu)
    return [init_pool(grid, config.generator.dim, beta) for _ in config.seeds]


def _resolve_alpha(config: RunConfig, v_t: float | None = None, growth: tuple | None = None) -> float:
    """The step size; the theoretical one needs the episode's V_T and (G, L)."""
    if config.alpha == THEORETICAL:
        psi = derive_constants(config.params, *growth, m=config.lam).psi
        return theoretical_stepsize(config.radius, v_t, psi, config.T)
    if config.alpha is not None:
        return config.alpha
    return 1.0 / math.sqrt(config.T)


class _Comparators:
    """One episode's comparator accounting, fed chunk by chunk in round order.

    Keeps the outlier mask, f_t at theta_t* on the emitted stream, the step
    norms ||theta_t* - theta_{t+1}*|| (summed once, so V_T sums in one order
    whatever the chunking), each chunk's largest ||theta_t*||, the largest
    (G, L) of the emitted rounds, and theta_t* and omega_t* on the corrupted
    rounds, (k, d) each, which every learner's trace shares. A chunk's
    comparators do not outlive its `add`.
    """

    def __init__(self, config: RunConfig):
        self.loss, self.radius = config.loss, config.radius
        self.is_outlier = np.zeros(config.T, dtype=bool)
        self.f_at_comparator = np.empty(config.T)
        self.steps = np.empty(config.T - 1)
        self.norm_max = []
        self.clean, self.emitted = np.empty((2, config.k, config.generator.dim))
        self.n_corrupted = 0   # the corrupted rounds accounted so far
        self.growth = np.zeros(2)
        self.last = np.empty((0, config.generator.dim))   # theta* of the round before the chunk

    def _minimizers(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """theta* of each row, projected onto the domain ball when the radius is finite."""
        comp = minimizer_rows(self.loss, X, y)
        if math.isfinite(self.radius):
            project_rows(comp, self.radius)
        return comp

    def add(self, t0: int, X, y_clean, y_emitted, idx):
        """Account rounds t0 .. t0 + len(X) - 1; idx are the chunk's corrupted rows."""
        t1 = t0 + len(X)
        comp = self._minimizers(X, y_clean)
        self.is_outlier[t0 + idx] = True
        self.f_at_comparator[t0:t1] = eval_f_rows(self.loss, X, y_emitted, comp)
        self.norm_max.append(np.linalg.norm(comp, axis=1).max())
        step = np.diff(np.concatenate((self.last, comp)), axis=0)
        step *= step   # squared in place: np.linalg.norm's row sums without its temporary
        self.steps[t1 - 1 - len(step):t1 - 1] = np.sqrt(np.add.reduce(step, axis=1))
        self.last = comp[-1:]
        j = slice(self.n_corrupted, self.n_corrupted + len(idx))
        self.clean[j], self.emitted[j] = comp[idx], self._minimizers(X[idx], y_emitted[idx])
        self.n_corrupted += len(idx)
        nx2 = np.einsum("ij,ij->i", X, X)
        omega_norm = np.abs(_min_scale(self.loss, nx2, y_emitted)) * np.sqrt(nx2)
        G, L = growth_constants(self.loss, nx2, omega_norm)
        self.growth = np.maximum(self.growth, (np.max(G), np.max(L)))

    @property
    def v_t(self) -> float:
        return float(self.steps.sum())

    def trace(self, f_emitted: np.ndarray, theta: np.ndarray) -> EpisodeTrace:
        return EpisodeTrace(
            is_outlier=self.is_outlier,
            theta=theta,
            f_emitted=f_emitted,
            comparator_clean=self.clean,
            comparator_emitted=self.emitted,
            f_at_comparator=self.f_at_comparator,
            v_t=self.v_t,
            comparator_radius=float(np.max(self.norm_max)),
            growth=tuple(self.growth.tolist()),
        )


def _chunks(config: RunConfig, accounts: list):
    """The streams of the config's seeds in lockstep time chunks of at most
    CHUNK_BYTES of features over all seeds (at least one round each). Each
    seed's part of a chunk goes to its accounting, if any, and into one
    (rounds, R, d) array of features and one (rounds, R) array of emitted
    responses, refilled for every chunk: yields (t0, X, Y)."""
    R, dim = len(config.seeds), config.generator.dim
    rows = min(config.T, max(1, CHUNK_BYTES // (R * dim * 8)))
    streams = [st.EpisodeStream(config.generator, config.T, config.k, seed) for seed in config.seeds]
    X, Y = np.empty((rows, R, dim)), np.empty((rows, R))
    for t0 in range(0, config.T, rows):
        n = min(rows, config.T - t0)
        for r, stream in enumerate(streams):
            x, y_clean, y_emitted, idx = stream.draw(n)
            if accounts:
                accounts[r].add(t0, x, y_clean, y_emitted, idx)
            X[:n, r], Y[:n, r] = x, y_emitted
        yield t0, X[:n], Y[:n]


def _stepper(cells: list, alpha: np.ndarray):
    """The step of a play's stacked actions, one (R, d) block per cell:
    step(theta, x, y, proj, f) returns the next (L, R, d) actions from this
    round's actions, side information x (1, R, d) and y (1, R), proj =
    <x, theta> and losses f, (L, R). One grad_f_rows and one descend_rows
    serve every block: ogd descends as it is, learn on the gradient scaled
    by its gate (learners.gate_rows), and a Top-k seed only where its filter
    lets the round through; a filtered seed keeps its action by selection.
    An expert pool's block is what each seed's own pool aggregates after
    pool_step. Each row gets what ogd_step, learn_step, topk_filter_step or
    the pool makes of that seed alone, bit for bit."""
    config = cells[0]
    loss, params, radius = config.loss, config.params, config.radius
    rows = np.arange(len(config.seeds))
    gated, filters, pools = [], [], []
    for i, cell in enumerate(cells):
        budget = cell.resolve_topk_budget()
        if cell.learner == LEARN:
            gated.append(i)
        elif cell.learner == EXPERTS:
            pools.append((i, _expert_pools(cell)))
        elif budget:   # each seed's `budget` largest gradient norms; -inf is empty
            filters.append((i, np.full((len(rows), budget), -np.inf)))
    descends = len(pools) < len(cells)

    def step(theta, x, y, proj, f):
        new = theta
        if descends:
            g = grad_f_rows(loss, x, y, theta, proj)
            for i in gated:
                g[i] *= gate_rows(params, f[i])[:, None]
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
        for i, seed_pools in pools:
            for r, pool in enumerate(seed_pools):
                pool_step(pool, SideInfo(x=x[0, r], y=float(y[0, r])), loss, params)
                new[i, r] = aggregate_action(pool)
        return new

    return step


class _Play:
    """The loop of a config's learners over all its seeds at once, one stacked
    (L, R, d) update per round for L cells of R seeds, fed chunk by chunk in
    round order; alpha holds each seed's step size, (1, R, 1). Keeps
    f_t(s_t, theta_t) of every cell, seed and round, (L, R, T), and the actions
    played in round T, (L, R, d). Each round's features, (1, R, d),
    broadcast against the stack, and every dot product is one BLAS dot per
    row, as eval_f and grad_f take it."""

    def __init__(self, cells: list, alpha: np.ndarray):
        config = cells[0]
        self.cells = cells
        self.theta = np.zeros((len(cells), len(config.seeds), config.generator.dim))
        self.f_emitted = np.empty((len(cells), len(config.seeds), config.T))
        self.step = _stepper(cells, alpha)

    def feed(self, t0: int, X: np.ndarray, Y: np.ndarray):
        cells, theta, step, f_emitted = self.cells, self.theta, self.step, self.f_emitted
        T, loss = cells[0].T, cells[0].loss
        for t, x, y in zip(range(t0, T), X[:, None], Y[:, None]):
            proj = np.vecdot(x, theta)
            f = _value(loss, proj, np.vecdot(theta, theta), y)
            finite = np.isfinite(f)
            if not finite.all():   # the first non-finite row in (cell, seed) order
                i, r = np.unravel_index(finite.argmin(), finite.shape)
                cell = cells[i]
                raise RuntimeError(f"learner {cell.learner}, k {cell.k}, seed {cell.seeds[r]}: non-finite loss "
                                   f"at round {t + 1} of {T}; the run diverged")
            f_emitted[..., t] = f
            if t + 1 < T:   # theta stays the action played in round T
                theta = step(theta, x, y, proj, f)
        self.theta = theta


def _episodes(cells: list) -> list:
    """Each cell's EpisodeTraces of its seeds, in order. The cells are one
    config under several learners: one draw of each seed's stream and one
    comparator pass feed one play of every cell's stacked actions, chunk by
    chunk."""
    config = cells[0]
    accounts = [_Comparators(config) for _ in config.seeds]
    chunks = _chunks(config, accounts)
    if config.alpha == THEORETICAL:
        for _ in chunks:   # the step size needs V_T, G and L: account first, then redraw the streams
            pass
        alpha = [_resolve_alpha(config, acc.v_t, acc.growth) for acc in accounts]
        chunks = _chunks(config, [])
    else:
        alpha = [_resolve_alpha(config)] * len(config.seeds)
    play = _Play(cells, np.array(alpha)[None, :, None])
    for t0, X, Y in chunks:
        play.feed(t0, X, Y)
    return [[acc.trace(f, th) for acc, f, th in zip(accounts, fs, ths)]
            for fs, ths in zip(play.f_emitted, play.theta)]


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
    T = len(curve.series)
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


def run_cells(config: RunConfig, learners) -> list:
    """Play the config under each of the learners on one draw of its seeds'
    streams and one comparator pass, and aggregate each: one CellResult per
    learner, in order, whose config is replace(config, learner=learner) and
    which equals what run_cell gives on that config alone.

    Raises ValueError on no learners or on a learner the setting does not
    admit (RunConfig's own checks), before any stream is drawn. A diverged
    run raises RuntimeError naming the learner, k, seed and round of the
    earliest non-finite loss over all learners and seeds (the first learner
    given, then the first seed, on a tie), before any step of that round.
    """
    cells = [replace(config, learner=learner) for learner in learners]
    if not cells:
        raise ValueError("run_cells needs at least one learner")
    results = []
    for cell, traces in zip(cells, _episodes(cells)):
        curves = [clean_dynamic_regret(trace) for trace in traces]
        mean, stderr = aggregate_runs(curves)
        results.append(CellResult(config=cell, curves=curves,
                                  final_thetas=[trace.theta for trace in traces], mean=mean, stderr=stderr))
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
