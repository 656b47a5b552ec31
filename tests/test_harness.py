import math

import numpy as np
import pytest

from robust_oco import harness
from robust_oco import stream as st
from robust_oco.harness import (
    EpisodeTrace,
    ExpertsSettings,
    RegretCurve,
    RunConfig,
    aggregate_runs,
    check_regret_bound,
    clean_dynamic_regret,
    delta_S,
    path_length,
    preset_config,
    run_cell,
    run_episode,
    run_theorem_check,
)
from robust_oco.losses import LearnParams, RoundLoss, derive_constants


def make_trace(f_emitted, f_at_comp, is_outlier, comp_clean=None, comp_emitted=None):
    T = len(f_emitted)
    comp_clean = np.zeros((T, 2)) if comp_clean is None else np.asarray(comp_clean, float)
    comp_emitted = comp_clean.copy() if comp_emitted is None else np.asarray(comp_emitted, float)
    return EpisodeTrace(
        is_outlier=np.asarray(is_outlier, bool),
        theta=np.zeros((T, 2)),
        f_emitted=np.asarray(f_emitted, float),
        comparator_clean=comp_clean,
        comparator_emitted=comp_emitted,
        f_at_comparator=np.asarray(f_at_comp, float),
    )


# --- metric operations on hand-built traces ----------------------------------

def test_clean_dynamic_regret_examples():
    c = clean_dynamic_regret(make_trace([1.0], [1.0], [False]))
    assert c.final == 0.0
    c = clean_dynamic_regret(make_trace([3.0], [1.0], [False]))
    assert c.final == 2.0
    # corrupted round contributes nothing; series repeats the running total
    c = clean_dynamic_regret(make_trace([3.0, 99.0], [1.0, 0.0], [False, True]))
    np.testing.assert_array_equal(c.series, [2.0, 2.0])
    assert c.n_outliers == 1


def test_path_length_examples():
    comp = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    t = make_trace([0, 0, 0], [0, 0, 0], [False] * 3, comp_clean=comp)
    assert path_length(t) == pytest.approx(2.0)
    t = make_trace([0, 0], [0, 0], [False] * 2, comp_clean=np.ones((2, 2)))
    assert path_length(t) == 0.0
    t = make_trace([0.0], [0.0], [False])
    assert path_length(t) == 0.0  # single round, empty sum


def test_delta_s_examples():
    t = make_trace([0, 0], [0, 0], [False, False])
    assert delta_S(t) == 0.0  # no corrupted rounds
    t = make_trace([0, 0], [0, 0], [False, True],
                   comp_clean=np.zeros((2, 2)),
                   comp_emitted=np.array([[5.0, 0.0], [1.0, 0.0]]))
    assert delta_S(t) == pytest.approx(1.0)  # only the corrupted round counts
    t = make_trace([0], [0], [True], comp_clean=np.ones((1, 2)), comp_emitted=np.ones((1, 2)))
    assert delta_S(t) == 0.0  # corruption left the minimizer fixed


def test_aggregate_runs():
    def curve(vals):
        return RegretCurve(series=np.asarray(vals, float), v_t=0, delta_s=0,
                           comparator_radius=0, b_clean=0, n_outliers=0)

    mean, err = aggregate_runs([curve([1.0, 2.0])])
    np.testing.assert_array_equal(err, [0.0, 0.0])
    mean, err = aggregate_runs([curve([1.0]), curve([3.0])])
    assert mean[0] == 2.0 and err[0] == pytest.approx(1.0)
    mean, err = aggregate_runs([curve([2.0, 2.0])] * 5)
    np.testing.assert_array_equal(err, [0.0, 0.0])
    with pytest.raises(ValueError):
        aggregate_runs([curve([1.0]), curve([1.0, 2.0])])
    with pytest.raises(ValueError):
        aggregate_runs([])


# --- run_episode -------------------------------------------------------------

def test_episode_regret_zero_when_started_at_minimizer():
    # y = 0 stream makes the origin the exact minimizer, which is theta_1
    gen = st.CleanGenerator(kind="ridge", dim=3, noise_std=0.0,
                            theta_star=np.zeros(3))
    cfg = RunConfig(T=1, loss=RoundLoss("ridge", 0.5), params=LearnParams(1, 1),
                    generator=gen, learner=harness.LEARN, k=0, seeds=[1])
    curve = clean_dynamic_regret(run_episode(cfg, 1))
    assert curve.final == pytest.approx(0.0, abs=1e-15)


def test_episode_all_corrupted_zero_regret():
    cfg = preset_config("svm", T=3, seeds=[1], learner=harness.OGD, k=3)
    curve = clean_dynamic_regret(run_episode(cfg, 1))
    np.testing.assert_array_equal(curve.series, np.zeros(3))
    assert curve.b_clean == 0.0  # no clean rounds to measure


def test_episode_determinism():
    cfg = preset_config("svm", T=100, seeds=[4], learner=harness.LEARN, k=10)
    t1, t2 = run_episode(cfg, 4), run_episode(cfg, 4)
    np.testing.assert_array_equal(t1.theta, t2.theta)
    np.testing.assert_array_equal(t1.f_emitted, t2.f_emitted)
    np.testing.assert_array_equal(t1.is_outlier, t2.is_outlier)


def test_episode_records_and_comparators():
    cfg = preset_config("ridge", T=50, seeds=[2], learner=harness.OGD, k=20)
    trace = run_episode(cfg, 2)
    assert len(trace) == 50
    assert trace.f_emitted.min() >= 0.0
    clean = ~trace.is_outlier
    np.testing.assert_array_equal(trace.comparator_clean[clean], trace.comparator_emitted[clean])
    assert trace.is_outlier.sum() == 20


def test_clean_regret_terms_nonnegative():
    for family, learner in (("ridge", harness.OGD), ("svm", harness.LEARN)):
        cfg = preset_config(family, T=300, seeds=[3], learner=learner, k=30)
        trace = run_episode(cfg, 3)
        terms = np.where(trace.is_outlier, 0.0, trace.f_emitted - trace.f_at_comparator)
        assert terms.min() >= -1e-9


def test_finite_radius_constrains_comparator_and_actions():
    cfg = preset_config("ridge", T=100, seeds=[5], learner=harness.LEARN, k=10, radius=0.05)
    trace = run_episode(cfg, 5)
    assert np.linalg.norm(trace.comparator_clean, axis=1).max() <= 0.05 + 1e-12
    assert np.linalg.norm(trace.theta, axis=1).max() <= 0.05 + 1e-12
    # regret terms stay essentially nonnegative for the projected ridge comparator
    terms = np.where(trace.is_outlier, 0.0, trace.f_emitted - trace.f_at_comparator)
    assert terms.min() >= -1e-9


def test_topk_variants_match_ogd_at_k_zero():
    series = {}
    for learner in (harness.OGD, harness.TOPK, harness.UTOPK):
        cfg = preset_config("svm", T=200, seeds=[6], learner=learner, k=0)
        series[learner] = clean_dynamic_regret(run_episode(cfg, 6)).series
    np.testing.assert_array_equal(series[harness.OGD], series[harness.TOPK])
    np.testing.assert_array_equal(series[harness.OGD], series[harness.UTOPK])


def test_utopk_budget_is_three_quarters():
    cfg = preset_config("svm", T=10, seeds=[1], learner=harness.UTOPK, k=10)
    assert cfg.resolve_topk_budget() == 7
    cfg = preset_config("svm", T=10, seeds=[1], learner=harness.TOPK, k=10)
    assert cfg.resolve_topk_budget() == 10
    cfg = preset_config("svm", T=10, seeds=[1], learner=harness.TOPK, k=10, topk_budget=3)
    assert cfg.resolve_topk_budget() == 3


def test_curve_statistics_recomputable_from_trace():
    cfg = preset_config("ridge", T=80, seeds=[9], learner=harness.LEARN, k=8)
    trace = run_episode(cfg, 9)
    curve = clean_dynamic_regret(trace)
    assert curve.v_t == path_length(trace)
    assert curve.delta_s == delta_S(trace)
    assert curve.comparator_radius == np.linalg.norm(trace.comparator_clean, axis=1).max()


def test_config_validation():
    gen = st.svm_generator()
    with pytest.raises(ValueError):
        RunConfig(T=0, loss=RoundLoss("hinge_svm", 1e-4), params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[1])
    with pytest.raises(ValueError):
        RunConfig(T=5, loss=RoundLoss("hinge_svm", 1e-4), params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[])
    with pytest.raises(ValueError):  # the bound constants need m = lam > 0
        RunConfig(T=5, loss=RoundLoss("hinge_svm", 0.0), params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[1])
    with pytest.raises(ValueError):  # theoretical mode needs finite radius + G, L
        RunConfig(T=5, loss=RoundLoss("hinge_svm", 1e-4), params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[1],
                  step_mode=harness.THEORETICAL)


# --- theoretical step size and the regret bound -------------------------------

def test_check_regret_bound_requires_theoretical_mode():
    cfg = preset_config("svm", T=10, seeds=[1], learner=harness.LEARN, k=0)
    curve = clean_dynamic_regret(run_episode(cfg, 1))
    consts = derive_constants(cfg.params, G=1.0, L=1.0, m=cfg.loss.lam, B=1.0)
    with pytest.raises(ValueError):
        check_regret_bound(curve, consts, cfg)


def test_bound_reduces_to_simple_form_when_no_outliers():
    # k make= 0 and V_T = 0 leaves xi * psi * 2D * sqrt(T)
    curve = RegretCurve(series=np.zeros(16), v_t=0.0, delta_s=0.0,
                        comparator_radius=0.0, b_clean=0.0, n_outliers=0)
    cfg = preset_config("ridge", T=16, seeds=[1], learner=harness.LEARN, k=0,
                        radius=2.0, step_mode=harness.THEORETICAL, G=1.0, L=3.0)
    consts = derive_constants(cfg.params, G=1.0, L=3.0, m=cfg.loss.lam, B=0.0)
    chk = check_regret_bound(curve, consts, cfg)
    assert chk.bound == pytest.approx(consts.xi * consts.psi * 2.0 * 2.0 * 4.0, rel=1e-12)
    assert chk.holds


def test_theorem_check_holds_across_k():
    for k in (0, 14, 34):
        chk, curve, consts = run_theorem_check(T=200, k=k, seed=7)
        assert chk.holds, f"k={k}: measured {chk.measured} > bound {chk.bound}"
        assert curve.n_outliers == k


def test_run_cell_aggregates():
    cfg = preset_config("svm", T=120, seeds=[1, 2, 3], learner=harness.LEARN, k=11)
    res = run_cell(cfg)
    assert len(res.curves) == 3 and len(res.final_thetas) == 3
    assert res.mean.shape == (120,) and res.stderr.shape == (120,)


def test_experts_learner_through_harness():
    cfg = preset_config("svm", T=150, seeds=[1], learner=harness.EXPERTS, k=12,
                        experts=ExpertsSettings(a_max=16.0, epsilon=1.0))
    trace, runner = harness.run_episode_with_runner(cfg, 1)
    curve = clean_dynamic_regret(trace)
    assert math.isfinite(curve.final)
    assert np.all(np.isfinite(runner.pool.log_weights))
    assert runner.pool.grid.n <= 150 * math.log2(16.0)
