import math

import numpy as np
import pytest

from conftest import capture_pools
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
    preset_config,
    run_cell,
    run_episode,
    run_theorem_check,
)
from robust_oco.learners import project_rows
from robust_oco.losses import LearnParams, RoundLoss, derive_constants, eval_f_rows, minimizer_rows


def make_trace(f_emitted, f_at_comp, is_outlier, comp_clean=None, comp_emitted=None):
    """A trace by hand; the comparators are the corrupted rounds' rows."""
    is_outlier = np.asarray(is_outlier, bool)
    k = int(is_outlier.sum())
    comp_clean = np.zeros((k, 2)) if comp_clean is None else np.asarray(comp_clean, float)
    comp_emitted = comp_clean.copy() if comp_emitted is None else np.asarray(comp_emitted, float)
    return EpisodeTrace(
        is_outlier=is_outlier,
        theta=np.zeros(2),
        f_emitted=np.asarray(f_emitted, float),
        comparator_clean=comp_clean,
        comparator_emitted=comp_emitted,
        f_at_comparator=np.asarray(f_at_comp, float),
        v_t=0.0,
        comparator_radius=0.0,
    )


def reference_accounting(cfg, seed):
    """The episode's full (T, d) clean and emitted comparators, recomputed from
    its stream, and the regret statistics read off them."""
    _, X, y_clean, y_emitted, is_outlier = st.episode_stream(cfg.generator, cfg.T, cfg.k, seed)
    comp_clean = minimizer_rows(cfg.loss, X, y_clean)
    comp_emitted = minimizer_rows(cfg.loss, X, y_emitted)
    if math.isfinite(cfg.radius):
        project_rows(comp_clean, cfg.radius)
        project_rows(comp_emitted, cfg.radius)
    diff = comp_emitted[is_outlier] - comp_clean[is_outlier]
    return dict(
        is_outlier=is_outlier,
        comp_clean=comp_clean,
        comp_emitted=comp_emitted,
        v_t=float(np.linalg.norm(np.diff(comp_clean, axis=0), axis=1).sum()),
        comparator_radius=float(np.linalg.norm(comp_clean, axis=1).max()),
        f_at_comparator=eval_f_rows(cfg.loss, X, y_emitted, comp_clean),
        delta_s=float(np.linalg.norm(diff, axis=1).max()) if is_outlier.any() else 0.0,
    )


def assert_matches_reference(cfg, seed):
    """run_episode's accounting equals the full-array reference exactly."""
    trace = run_episode(cfg, seed)
    ref = reference_accounting(cfg, seed)
    mask = ref["is_outlier"]
    np.testing.assert_array_equal(trace.is_outlier, mask)
    assert trace.v_t == ref["v_t"]
    assert trace.comparator_radius == ref["comparator_radius"]
    np.testing.assert_array_equal(trace.f_at_comparator, ref["f_at_comparator"])
    assert trace.comparator_clean.shape == (cfg.k, cfg.generator.dim)
    np.testing.assert_array_equal(trace.comparator_clean, ref["comp_clean"][mask])
    np.testing.assert_array_equal(trace.comparator_emitted, ref["comp_emitted"][mask])
    assert delta_S(trace) == ref["delta_s"]
    curve = clean_dynamic_regret(trace)
    assert (curve.v_t, curve.delta_s, curve.comparator_radius) == (
        ref["v_t"], ref["delta_s"], ref["comparator_radius"])
    return trace, ref


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


def test_path_length_examples(monkeypatch):
    # V_T and the radius are read off the comparators minimizer_rows returns
    def clean_comparators(comp, is_outlier=None, radius=math.inf):
        comp = np.asarray(comp, float)
        T = len(comp)
        monkeypatch.setattr(harness, "minimizer_rows", lambda loss, X, y: comp.copy())
        cfg = preset_config("svm", T=T, seeds=[1], k=0, radius=radius)
        mask = np.zeros(T, bool) if is_outlier is None else np.asarray(is_outlier)
        return harness._clean_comparators(cfg, np.zeros((T, 2)), np.zeros(T), np.zeros(T), mask)

    v_t, radius, _, rows = clean_comparators([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [False, True, False])
    assert v_t == 2.0 and radius == math.sqrt(2.0)
    np.testing.assert_array_equal(rows, [[1.0, 0.0]])  # only the corrupted round is kept
    assert clean_comparators(np.ones((2, 2)))[0] == 0.0
    assert clean_comparators([[3.0, 4.0]])[:2] == (0.0, 5.0)  # single round, empty sum
    # a finite radius projects the comparators before V_T and the radius are taken
    v_t, radius, _, rows = clean_comparators([[3.0, 4.0], [0.0, 0.5]], [True, False], radius=1.0)
    assert v_t == pytest.approx(math.hypot(0.6, 0.3)) and radius == pytest.approx(1.0)
    np.testing.assert_allclose(rows, [[0.6, 0.8]])


def test_delta_s_examples():
    t = make_trace([0, 0], [0, 0], [False, False])
    assert delta_S(t) == 0.0  # no corrupted rounds
    t = make_trace([0, 0, 0], [0, 0, 0], [True, False, True],
                   comp_clean=np.zeros((2, 2)),
                   comp_emitted=np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert delta_S(t) == 5.0  # the largest displacement over the corrupted rounds
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
    trace, ref = assert_matches_reference(cfg, 2)
    assert len(trace) == 50 and trace.theta.shape == (100,)
    assert trace.f_emitted.min() >= 0.0
    clean = ~trace.is_outlier
    np.testing.assert_array_equal(ref["comp_clean"][clean], ref["comp_emitted"][clean])
    assert trace.is_outlier.sum() == 20
    assert delta_S(trace) > 0.0


def test_clean_regret_terms_nonnegative():
    for family, learner in (("ridge", harness.OGD), ("svm", harness.LEARN)):
        cfg = preset_config(family, T=300, seeds=[3], learner=learner, k=30)
        trace = run_episode(cfg, 3)
        terms = np.where(trace.is_outlier, 0.0, trace.f_emitted - trace.f_at_comparator)
        assert terms.min() >= -1e-9


def test_finite_radius_constrains_comparator_and_actions(monkeypatch):
    played = []

    def recording_eval_f(loss, s, theta):
        played.append(theta.copy())
        return eval_f(loss, s, theta)

    eval_f = harness.eval_f
    monkeypatch.setattr(harness, "eval_f", recording_eval_f)
    cfg = preset_config("ridge", T=100, seeds=[5], learner=harness.LEARN, k=10, radius=0.05)
    trace = run_episode(cfg, 5)
    assert trace.comparator_radius <= 0.05 + 1e-12
    assert len(played) == 100
    assert np.linalg.norm(played, axis=1).max() <= 0.05 + 1e-12
    # the trace keeps the action played in round T, before the last step
    np.testing.assert_array_equal(trace.theta, played[-1])
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
    assert_matches_reference(cfg, 9)


@pytest.mark.parametrize("family, learner", [("ridge", harness.LEARN), ("svm", harness.TOPK)])
def test_finite_radius_accounting_matches_reference(family, learner):
    # radius 0.05 projects 70-86% of the comparators of either family, not all
    cfg = preset_config(family, T=120, seeds=[4], learner=learner, k=12, radius=0.05)
    trace = assert_matches_reference(cfg, 4)[0]
    assert trace.comparator_radius <= 0.05 + 1e-12
    assert np.linalg.norm(trace.comparator_emitted, axis=1).max() <= 0.05 + 1e-12


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
    base = preset_config("ridge", T=200)
    for k in (0, 14, 34):
        chk, curve, consts = run_theorem_check(T=200, k=k, seed=7)
        assert chk.holds, f"k={k}: measured {chk.measured} > bound {chk.bound}"
        assert curve.n_outliers == k
        # L is the Hessian bound lam + 2 max ||x_t||^2 of the episode's own stream
        X = st.episode_stream(base.generator, 200, k, 7)[1]
        assert consts.L == base.loss.lam + 2.0 * float(np.einsum("ij,ij->i", X, X).max())


def test_run_cell_aggregates():
    cfg = preset_config("svm", T=120, seeds=[1, 2, 3], learner=harness.LEARN, k=11)
    res = run_cell(cfg)
    assert len(res.curves) == 3 and len(res.final_thetas) == 3
    assert res.mean.shape == (120,) and res.stderr.shape == (120,)


def test_experts_learner_through_harness(monkeypatch):
    cfg = preset_config("svm", T=150, seeds=[1], learner=harness.EXPERTS, k=12,
                        experts=ExpertsSettings(a_max=16.0, epsilon=1.0))
    pools = capture_pools(monkeypatch)
    curve = clean_dynamic_regret(run_episode(cfg, 1))
    assert math.isfinite(curve.final)
    assert len(pools) == 1
    assert np.all(np.isfinite(pools[0].log_weights))
    assert pools[0].grid.n <= 150 * math.log2(16.0)


def test_divergent_run_stops_at_first_non_finite_loss(monkeypatch):
    # ridge OGD with alpha = 1 has its first non-finite loss at round 148
    steps = []

    def counting_ogd_step(state, s, loss):
        steps.append(1)
        return ogd_step(state, s, loss)

    ogd_step = harness.ogd_step
    monkeypatch.setattr(harness, "ogd_step", counting_ogd_step)
    cfg = preset_config("ridge", T=2000, seeds=[1], learner=harness.OGD, k=0, alpha=1.0)
    with pytest.raises(RuntimeError, match="seed 1: non-finite loss at round 148 of 2000"):
        run_episode(cfg, 1)
    assert len(steps) <= 147


def test_learn_round_evaluates_loss_once(monkeypatch):
    from robust_oco import losses

    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(harness, "eval_f", counting(harness.eval_f))
    monkeypatch.setattr(losses, "eval_f", counting(losses.eval_f))
    cfg = preset_config("svm", T=80, seeds=[1], learner=harness.LEARN, k=8)
    run_episode(cfg, 1)
    assert len(calls) == 80
