"""Outlier-robust online convex optimization.

A redescending log-exp transform of strongly convex per-round losses, the
projected-gradient learner built on it, exponential-weights expert
aggregation for unbounded domains, corruption-adversary experiment harness,
and a numerical verification suite for the underlying inequalities.
"""

from .losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    ProblemConstants,
    RoundLoss,
    SideInfo,
    derive_constants,
    eta,
    eval_f,
    grad_f,
    grad_g,
)
from .learners import theoretical_stepsize
from .experts import ExpertGrid, ExpertPool, aggregate_action, beta_default, build_grid, init_pool, pool_step
from .stream import (
    CleanGenerator,
    gen_clean_block,
    k_grid,
    sample_outlier_rounds,
    stream_rngs,
)
from .harness import (
    EpisodeTrace,
    RegretCurve,
    RunConfig,
    aggregate_runs,
    check_regret_bound,
    clean_dynamic_regret,
    preset_config,
    run_cell,
    run_cells,
    run_episode,
    run_episodes,
    run_theorem_check,
)
from .oracle import CheckReport, default_suite

__version__ = "0.1.0"
