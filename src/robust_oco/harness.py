"""Episode runner and regret accounting.

An episode plays one learner against one corrupted stream for T rounds and
keeps what the regret accounting reads: the per-round losses, the path
length V_T and radius of the clean comparators, and both comparator sets on
the corrupted rounds only, for the adversary displacement delta_S. Clean
dynamic regret sums f_t(s_t, theta_t) - f_t(s_t, theta_t*) over uncorrupted
rounds only, where theta_t* minimizes the clean-round loss (projected onto
the domain ball when the radius is finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import stream as st
from .experts import ExpertPool, aggregate_action, beta_default, build_grid, init_pool, pool_step
from .learners import LearnerState, learn_step, ogd_step, project_rows, theoretical_stepsize, topk_filter_step
from .losses import (
    LearnParams,
    ProblemConstants,
    RoundLoss,
    SideInfo,
    derive_constants,
    eval_f,
    eval_f_rows,
    minimizer_rows,
)

OGD = "ogd"
LEARN = "learn"
TOPK = "topk"
UTOPK = "utopk"
EXPERTS = "experts"
LEARNERS = (OGD, LEARN, TOPK, UTOPK, EXPERTS)

FIXED = "fixed"
THEORETICAL = "theoretical"


@dataclass
class ExpertsSettings:
    """Algorithm-2 knobs. a_max defaults to max(sqrt(T), 2); beta to the
    sqrt(8 log N / (T nu^2)) choice."""

    a_max: float | None = None
    epsilon: float = 1.0
    beta: float | None = None


@dataclass
class RunConfig:
    """Everything one (learner, k) cell needs, including the seed list."""

    T: int
    loss: RoundLoss
    params: LearnParams
    generator: st.CleanGenerator
    learner: str
    k: int
    seeds: list
    radius: float = math.inf
    alpha: float | None = None           # fixed step size; None = 1/sqrt(T)
    step_mode: str = FIXED
    topk_budget: int | None = None       # default: k for topk, floor(0.75 k) for utopk
    experts: ExpertsSettings = field(default_factory=ExpertsSettings)
    G: float | None = None               # gradient-bound constants, used by the
    L: float | None = None               # theoretical step size and bound checks
    B: float | None = None               # clean-round loss bound; None = measure it

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.learner not in LEARNERS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if not (0 <= self.k <= self.T):
            raise ValueError("need 0 <= k <= T")
        if self.loss.lam <= 0:
            raise ValueError("lam must be positive: it is the strong convexity modulus m of the bound constants")
        if self.step_mode not in (FIXED, THEORETICAL):
            raise ValueError(f"unknown step mode {self.step_mode!r}")
        if self.step_mode == THEORETICAL:
            if not math.isfinite(self.radius):
                raise ValueError("theoretical step size needs a finite domain radius")
            if self.G is None or self.L is None:
                raise ValueError("theoretical step size needs the gradient-bound constants G and L")

    def resolve_topk_budget(self) -> int:
        if self.topk_budget is not None:
            return self.topk_budget
        if self.learner == UTOPK:
            return int(math.floor(0.75 * self.k))
        return self.k

    def resolve_a_max(self) -> float:
        if self.experts.a_max is not None:
            return self.experts.a_max
        return max(math.sqrt(self.T), 2.0)


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


class _SingleRunner:
    """Wraps one LearnerState and the per-round step of a non-expert learner."""

    def __init__(self, config: RunConfig, alpha: float, dim: int):
        self.state = LearnerState(theta=np.zeros(dim), step_size=alpha, radius=config.radius)
        self.kind = config.learner
        self.params = config.params
        self.budget = config.resolve_topk_budget() if config.learner in (TOPK, UTOPK) else 0

    @property
    def theta(self) -> np.ndarray:
        return self.state.theta

    def observe(self, s: SideInfo, loss: RoundLoss, f_val: float):
        if self.kind == OGD:
            ogd_step(self.state, s, loss)
        elif self.kind == LEARN:
            learn_step(self.state, s, loss, self.params, f_val)
        else:
            topk_filter_step(self.state, s, loss, self.budget)


class _ExpertsRunner:
    """Wraps an ExpertPool; the played action is the weighted expert average."""

    def __init__(self, config: RunConfig, dim: int):
        grid = build_grid(config.resolve_a_max(), config.experts.epsilon, config.T)
        beta = config.experts.beta
        if beta is None:
            beta = beta_default(grid.n, config.T, config.params.nu)
        self.pool: ExpertPool = init_pool(grid, dim, beta)
        self.params = config.params

    @property
    def theta(self) -> np.ndarray:
        return aggregate_action(self.pool)

    def observe(self, s: SideInfo, loss: RoundLoss, f_val: float):
        pool_step(self.pool, s, loss, self.params)


def _make_runner(config: RunConfig, alpha: float, dim: int):
    if config.learner == EXPERTS:
        return _ExpertsRunner(config, dim)
    return _SingleRunner(config, alpha, dim)


def _resolve_alpha(config: RunConfig, v_t: float) -> float:
    if config.step_mode == THEORETICAL:
        psi = derive_constants(config.params, G=config.G, L=config.L, m=config.loss.lam).psi
        return theoretical_stepsize(config.radius, v_t, psi, config.T)
    if config.alpha is not None:
        return config.alpha
    return 1.0 / math.sqrt(config.T)


def _minimizers(config: RunConfig, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """theta* of each row, projected onto the domain ball when the radius is finite."""
    comp = minimizer_rows(config.loss, X, y)
    if math.isfinite(config.radius):
        project_rows(comp, config.radius)
    return comp


def _clean_comparators(config: RunConfig, X, y_clean, y_emitted, is_outlier):
    """(V_T, comparator radius, f_t at theta_t* on the emitted stream, theta_t*
    on the corrupted rounds). The (T, d) comparators do not outlive the call."""
    comp = _minimizers(config, X, y_clean)
    radius = float(np.linalg.norm(comp, axis=1).max())
    f_at_comparator = eval_f_rows(config.loss, X, y_emitted, comp)
    step = np.diff(comp, axis=0)
    step *= step   # squared in place: np.linalg.norm's row sums without its (T, d) temporary
    return float(np.sqrt(np.add.reduce(step, axis=1)).sum()), radius, f_at_comparator, comp[is_outlier]


def run_episode(config: RunConfig, seed: int) -> EpisodeTrace:
    """Play one seeded episode and return what its regret accounting reads.
    Raises RuntimeError naming the seed and the first round whose loss is not
    finite (a diverged run), before that round's step."""
    T = config.T
    gen, X, y_clean, y_emitted, is_outlier = st.episode_stream(config.generator, T, config.k, seed)
    v_t, radius, f_at_comparator, comp_clean = _clean_comparators(config, X, y_clean, y_emitted, is_outlier)
    comp_emitted = _minimizers(config, X[is_outlier], y_emitted[is_outlier])

    runner = _make_runner(config, _resolve_alpha(config, v_t), gen.dim)
    f_emitted = np.empty(T)
    for t in range(T):
        s = SideInfo(x=X[t], y=float(y_emitted[t]))
        try:
            theta = runner.theta   # steps replace the action array, never write into it
            f_val = eval_f(config.loss, s, theta)
        except Exception as exc:
            raise RuntimeError(f"round {t + 1}: {exc}") from exc
        if not math.isfinite(f_val):
            raise RuntimeError(f"seed {seed}: non-finite loss at round {t + 1} of {T}; the run diverged")
        f_emitted[t] = f_val
        try:
            runner.observe(s, config.loss, f_val)
        except Exception as exc:
            raise RuntimeError(f"round {t + 1}: {exc}") from exc

    return EpisodeTrace(
        is_outlier=is_outlier,
        theta=theta,
        f_emitted=f_emitted,
        comparator_clean=comp_clean,
        comparator_emitted=comp_emitted,
        f_at_comparator=f_at_comparator,
        v_t=v_t,
        comparator_radius=radius,
    )


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
    if config.step_mode != THEORETICAL:
        raise ValueError("bound check requires a run with step_mode='theoretical'")
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


def run_cell(config: RunConfig) -> CellResult:
    """Run every seed of the cell and aggregate."""
    curves, final_thetas = [], []
    for seed in config.seeds:
        trace = run_episode(config, seed)
        curves.append(clean_dynamic_regret(trace))
        final_thetas.append(trace.theta)
    mean, stderr = aggregate_runs(curves)
    return CellResult(config=config, curves=curves, final_thetas=final_thetas, mean=mean, stderr=stderr)


def run_theorem_check(T: int = 200, k: int = 0, seed: int = 1, radius: float = 5.0):
    """One theoretical-step-size ridge run inside a ball, checked against the
    clean-dynamic-regret bound. Returns (BoundCheck, RegretCurve, ProblemConstants).

    The gradient-growth constants come from the seed-deterministic stream
    itself: G = 0 (ridge gradients vanish at the interior minimizer) and
    L = lam + 2 max_t ||x_t||^2, an exact Hessian bound valid on corrupted
    rounds too since it does not involve y.
    """
    base = preset_config("ridge", T=T, seeds=[seed], learner=LEARN, k=k)
    X = st.episode_stream(base.generator, T, k, seed)[1]
    L = base.loss.lam + 2.0 * float(np.einsum("ij,ij->i", X, X).max())
    config = replace(base, radius=radius, step_mode=THEORETICAL, G=0.0, L=L)
    trace = run_episode(config, seed)
    curve = clean_dynamic_regret(trace)
    b_val = config.B if config.B is not None else curve.b_clean
    constants = derive_constants(config.params, G=config.G, L=config.L, m=config.loss.lam, B=b_val)
    return check_regret_bound(curve, constants, config), curve, constants


def preset_config(family: str, T: int | None = None, seeds: list | None = None, **overrides) -> RunConfig:
    """Experiment presets: ridge (T=1e5, d=100, a=b=10) and svm (T=1e4, d=2, a=1e4, b=10),
    both with lam=1e-4, alpha=1/sqrt(T), unbounded domain, seeds 1..30."""
    if family == "ridge":
        T = 10 ** 5 if T is None else T
        base = dict(
            T=T,
            loss=RoundLoss(family="ridge", lam=1e-4),
            params=LearnParams(a=10.0, b=10.0),
            generator=st.ridge_generator(dim=100),
        )
    elif family == "svm":
        T = 10 ** 4 if T is None else T
        base = dict(
            T=T,
            loss=RoundLoss(family="hinge_svm", lam=1e-4),
            params=LearnParams(a=1e4, b=10.0),
            generator=st.svm_generator(dim=2),
        )
    else:
        raise ValueError(f"unknown preset {family!r}")
    base.update(learner=LEARN, k=0, seeds=seeds if seeds is not None else list(range(1, 31)))
    base.update(overrides)
    return RunConfig(**base)
