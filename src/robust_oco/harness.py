"""Episode runner and regret accounting.

An episode plays one learner against one corrupted stream for T rounds and
keeps what the regret accounting reads: the per-round losses, the path
length V_T and radius of the clean comparators, and both comparator sets on
the corrupted rounds only, for the adversary displacement delta_S. Clean
dynamic regret sums f_t(s_t, theta_t) - f_t(s_t, theta_t*) over uncorrupted
rounds only, where theta_t* minimizes the clean-round loss (projected onto
the domain ball when the radius is finite).

`run_cells` plays all seeds of the cells that share one stream setting (T,
k, seeds, generator, ...) and differ only in the learner. Each seed's stream
is drawn once, in time chunks of at most CHUNK_BYTES of features over all
seeds; a chunk feeds every seed's comparator accounting, then every
learner's loop in turn, which advances one (R, d) array of actions per round
and keeps its state from chunk to chunk. The loop uses the loss kernels of
`losses` and the row steps of `learners` (learn_rows, the gated projected
step that the oracle checks, and descend_rows), takes every dot product as
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
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import stream as st
from .experts import aggregate_action, beta_default, build_grid, init_pool, pool_step
from .learners import descend_rows, learn_rows, project_rows, theoretical_stepsize
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
        if self.lam <= 0:
            raise ValueError("lam must be positive: it is the strong convexity modulus m of the bound constants")
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


def _expert_pools(config: RunConfig, n_seeds: int) -> list:
    """n_seeds fresh Algorithm-2 pools over one shared (step size, radius)
    grid of A_max = max(sqrt(T), 2) and epsilon = 1, with beta =
    sqrt(8 log N / (T nu^2))."""
    grid = build_grid(max(math.sqrt(config.T), 2.0), 1.0, config.T)
    beta = beta_default(grid.n, config.T, config.params.nu)
    return [init_pool(grid, config.generator.dim, beta) for _ in range(n_seeds)]


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
    rounds. A chunk's comparators do not outlive its `add`.
    """

    def __init__(self, config: RunConfig):
        self.loss, self.radius = config.loss, config.radius
        self.is_outlier = np.zeros(config.T, dtype=bool)
        self.f_at_comparator = np.empty(config.T)
        self.steps = np.empty(config.T - 1)
        self.norm_max = []
        self.clean, self.emitted = [], []
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
        self.clean.append(comp[idx])
        self.emitted.append(self._minimizers(X[idx], y_emitted[idx]))
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
            comparator_clean=np.concatenate(self.clean),
            comparator_emitted=np.concatenate(self.emitted),
            f_at_comparator=self.f_at_comparator,
            v_t=self.v_t,
            comparator_radius=float(np.max(self.norm_max)),
            growth=tuple(self.growth.tolist()),
        )


def _chunks(config: RunConfig, seeds, accounts: list):
    """The seeds' streams in lockstep time chunks of at most CHUNK_BYTES of
    features over all seeds (at least one round each). Each seed's part of a
    chunk goes to its accounting, if any, and into one (rounds, R, d) array
    of features and one (rounds, R) array of emitted responses, refilled for
    every chunk: yields (t0, X, Y)."""
    R, dim = len(seeds), config.generator.dim
    rows = min(config.T, max(1, CHUNK_BYTES // (R * dim * 8)))
    streams = [st.EpisodeStream(config.generator, config.T, config.k, seed) for seed in seeds]
    X, Y = np.empty((rows, R, dim)), np.empty((rows, R))
    for t0 in range(0, config.T, rows):
        n = min(rows, config.T - t0)
        for r, stream in enumerate(streams):
            x, y_clean, y_emitted, idx = stream.draw(n)
            if accounts:
                accounts[r].add(t0, x, y_clean, y_emitted, idx)
            X[:n, r], Y[:n, r] = x, y_emitted
        yield t0, X[:n], Y[:n]


def _stepper(config: RunConfig, alpha: np.ndarray, n_seeds: int):
    """The learner's step of all seeds' actions at once: step(theta, x, y,
    proj, f) returns the next (R, d) actions from this round's actions, side
    information, proj = <x, theta> and losses. Each row gets what ogd_step,
    learn_step or topk_filter_step makes of it, bit for bit; for the expert
    pool, what its seed's own pool aggregates after pool_step."""
    loss, params, radius = config.loss, config.params, config.radius
    if config.learner == EXPERTS:
        pools = _expert_pools(config, n_seeds)

        def pool_steps(theta, x, y, proj, f):
            for r, pool in enumerate(pools):
                pool_step(pool, SideInfo(x=x[r], y=float(y[r])), loss, params)
                theta[r] = aggregate_action(pool)
            return theta

        return pool_steps
    if config.learner == LEARN:
        return lambda theta, x, y, proj, f: learn_rows(theta, x, y, proj, f, loss, params, alpha, radius)
    budget = config.resolve_topk_budget()
    top = np.full((n_seeds, budget), -np.inf)   # each seed's `budget` largest gradient norms; -inf is empty
    rows = np.arange(n_seeds)

    def step(theta, x, y, proj, f):
        g = grad_f_rows(loss, x, y, theta, proj)
        if not budget:
            return descend_rows(theta, g, alpha, radius)
        # a round before the buffer is full meets low = -inf: filtered, it fills an empty slot
        n = np.sqrt(np.vecdot(g, g))
        j = top.argmin(axis=1)
        low = top[rows, j]
        update = n < 2.0 * low
        grow = ~update & (n > low)
        top[rows[grow], j[grow]] = n[grow]   # replacing a minimum keeps the heap's multiset
        return np.where(update[:, None], descend_rows(theta, g, alpha, radius), theta)

    return step


class _Play:
    """One learner's loop over all seeds at once, one (R, d) update per round,
    fed chunk by chunk in round order; alpha holds each seed's step size,
    (R, 1). Keeps f_t(s_t, theta_t) of every seed and round, (R, T), and the
    actions played in round T, (R, d). Every dot product is one BLAS dot per
    row, as eval_f and grad_f take it."""

    def __init__(self, config: RunConfig, seeds, alpha: np.ndarray):
        self.config, self.seeds = config, seeds
        self.theta = np.zeros((len(seeds), config.generator.dim))
        self.f_emitted = np.empty((len(seeds), config.T))
        self.step = _stepper(config, alpha, len(seeds))

    def feed(self, t0: int, X: np.ndarray, Y: np.ndarray):
        config, theta, step, f_emitted = self.config, self.theta, self.step, self.f_emitted
        T, loss = config.T, config.loss
        for t, x, y in zip(range(t0, T), X, Y):
            proj = np.vecdot(x, theta)
            f = _value(loss, proj, np.vecdot(theta, theta), y)
            finite = np.isfinite(f)
            if not finite.all():
                seed = self.seeds[int(finite.argmin())]
                raise RuntimeError(f"learner {config.learner}, k {config.k}, seed {seed}: non-finite loss "
                                   f"at round {t + 1} of {T}; the run diverged")
            f_emitted[:, t] = f
            if t + 1 < T:   # theta stays the action played in round T
                theta = step(theta, x, y, proj, f)
        self.theta = theta


def _episodes(configs: list, seeds) -> list:
    """Each config's EpisodeTraces of `seeds`, in order. The configs differ
    only in learner: one draw of each seed's stream and one comparator pass
    feed every config's loop, chunk by chunk."""
    config = configs[0]
    accounts = [_Comparators(config) for _ in seeds]
    chunks = _chunks(config, seeds, accounts)
    if config.alpha == THEORETICAL:
        for _ in chunks:   # the step size needs V_T, G and L: account first, then redraw the streams
            pass
        alpha = [_resolve_alpha(config, acc.v_t, acc.growth) for acc in accounts]
        chunks = _chunks(config, seeds, [])
    else:
        alpha = [_resolve_alpha(config)] * len(seeds)
    alpha = np.array(alpha)[:, None]
    plays = [_Play(cfg, seeds, alpha) for cfg in configs]
    for t0, X, Y in chunks:
        for play in plays:
            play.feed(t0, X, Y)
    return [[acc.trace(f, th) for acc, f, th in zip(accounts, play.f_emitted, play.theta)] for play in plays]


def run_episodes(config: RunConfig, seeds) -> list:
    """Play the seeded episodes of the config and return what their regret
    accounting reads, one EpisodeTrace per seed, in order.

    Raises RuntimeError naming the learner, k, seed and round of the batch's
    earliest non-finite loss (a diverged run; the first such seed on a tie),
    before any step of that round.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    return _episodes([config], seeds)[0]


def run_episode(config: RunConfig, seed: int) -> EpisodeTrace:
    """One seed's episode; see run_episodes."""
    return run_episodes(config, [seed])[0]


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


def _same(a, b) -> bool:
    """Equality that also holds field by field for dataclasses with array fields."""
    if is_dataclass(a) and type(a) is type(b):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def run_cells(configs: list) -> list:
    """Run cells that differ only in learner on one draw of their seeds'
    streams and one comparator pass, and aggregate each: one CellResult per
    config, in order, equal to what run_cell gives on that config alone.

    Raises ValueError on an empty list or on configs that differ in anything
    but the learner. A diverged run raises RuntimeError naming the learner,
    k, seed and round; learners meet each chunk in the order of `configs`.
    """
    if not configs:
        raise ValueError("run_cells needs at least one config")
    first = configs[0]
    for config in configs[1:]:
        differ = [f.name for f in fields(RunConfig)
                  if f.name != "learner" and not _same(getattr(config, f.name), getattr(first, f.name))]
        if differ:
            raise ValueError(f"run_cells plays cells that differ only in learner; these differ in "
                             f"{', '.join(differ)}")
    results = []
    for config, traces in zip(configs, _episodes(configs, first.seeds)):
        curves = [clean_dynamic_regret(trace) for trace in traces]
        mean, stderr = aggregate_runs(curves)
        results.append(CellResult(config=config, curves=curves,
                                  final_thetas=[trace.theta for trace in traces], mean=mean, stderr=stderr))
    return results


def run_cell(config: RunConfig) -> CellResult:
    """Run every seed of the cell in one batch and aggregate; see run_cells."""
    return run_cells([config])[0]


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


def preset_config(family: str, T: int | None = None, seeds: list | None = None, **overrides) -> RunConfig:
    """Experiment presets: ridge (T=1e5, d=100, a=b=10) and svm (T=1e4, d=2, a=1e4, b=10),
    both with lam=1e-4, alpha=1/sqrt(T), unbounded domain, seeds 1..30."""
    if family == "ridge":
        T = 10 ** 5 if T is None else T
        params, generator = LearnParams(a=10.0, b=10.0), st.ridge_generator(dim=100)
    elif family == "svm":
        T = 10 ** 4 if T is None else T
        params, generator = LearnParams(a=1e4, b=10.0), st.svm_generator(dim=2)
    else:
        raise ValueError(f"unknown preset {family!r}")
    base = dict(T=T, lam=1e-4, params=params, generator=generator, learner=LEARN, k=0,
                seeds=seeds if seeds is not None else list(range(1, 31)))
    base.update(overrides)
    return RunConfig(**base)
