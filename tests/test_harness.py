import dataclasses
import math

import numpy as np
import pytest

from conftest import SeedPool, capture_pools, minimizer_f, seed_aggregate_action, seed_pool_step
from robust_oco import harness
from robust_oco import stream as st
from robust_oco.harness import (
    EpisodeTrace,
    RegretCurve,
    RunConfig,
    aggregate_runs,
    check_regret_bound,
    clean_dynamic_regret,
    delta_S,
    preset_config,
    run_cell,
    run_episode,
    run_episodes,
    run_theorem_check,
)
from robust_oco.learners import LearnerState, learn_step, ogd_step, project_rows, topk_filter_step
from robust_oco.losses import (
    LearnParams,
    RoundLoss,
    SideInfo,
    derive_constants,
    eval_f,
    eval_f_rows,
    grad_f,
    growth_constants,
    minimizer_rows,
)


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
        growth=(0.0, 0.0),
    )


def reference_accounting(cfg, seed):
    """The episode's full (T, d) clean and emitted comparators, recomputed from
    its stream, the regret statistics read off them, and the gradient growth
    constants (G, L) of the whole emitted stream."""
    _, X, y_clean, y_emitted, is_outlier = st.episode_stream(cfg.generator, cfg.T, cfg.k, seed)
    comp_clean = minimizer_rows(cfg.loss, X, y_clean)
    comp_emitted = minimizer_rows(cfg.loss, X, y_emitted)
    G, L = growth_constants(cfg.loss, np.einsum("ij,ij->i", X, X), np.linalg.norm(comp_emitted, axis=1))
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
        growth=(float(np.max(G)), float(np.max(L))),
    )


def per_seed_episode(cfg, seed):
    """The per-seed episode loop that run_episodes replaced, kept as its
    reference: one SideInfo and one step of a LearnerState, or of the seed's
    own expert pool (conftest.SeedPool), per round. Returns f_t(s_t, theta_t)
    of every round and the action played in round T."""
    _, X, _, y_emitted, _ = st.episode_stream(cfg.generator, cfg.T, cfg.k, seed)
    ref = reference_accounting(cfg, seed)
    alpha = harness._resolve_alpha(cfg, ref["v_t"], ref["growth"])
    state = LearnerState(theta=np.zeros(cfg.generator.dim), step_size=alpha, radius=cfg.radius)
    budget = {harness.TOPK: cfg.k, harness.UTOPK: math.floor(0.75 * cfg.k)}.get(cfg.learner, 0)
    pool = None
    if cfg.learner == harness.EXPERTS:
        stacked = harness._expert_pool(dataclasses.replace(cfg, seeds=[seed]))   # the cell's grid and beta
        pool = SeedPool(stacked.grid, cfg.generator.dim, stacked.beta)
    f_emitted = np.empty(cfg.T)
    for t in range(cfg.T):
        s = SideInfo(x=X[t], y=float(y_emitted[t]))
        theta = state.theta if pool is None else seed_aggregate_action(pool)   # steps never write into theta
        f_emitted[t] = eval_f(cfg.loss, s, theta)
        if not math.isfinite(f_emitted[t]):
            raise RuntimeError(f"seed {seed}: non-finite loss at round {t + 1} of {cfg.T}; the run diverged")
        if cfg.learner == harness.OGD:
            ogd_step(state, s, cfg.loss)
        elif cfg.learner == harness.LEARN:
            learn_step(state, s, cfg.loss, cfg.params, f_emitted[t])
        elif pool is not None:
            seed_pool_step(pool, s, cfg.loss, cfg.params)
        else:
            topk_filter_step(state, s, cfg.loss, budget)
    return f_emitted, theta


def assert_traces_equal(a, b):
    for field in dataclasses.fields(EpisodeTrace):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name), err_msg=field.name)


def count_steps(monkeypatch, returned=None):
    """Record the stacked (learners, seeds, d) actions at each call of the
    batched kernel's step, and into `returned`, if given, the actions each
    call returns."""
    steps = []
    stepper = harness._stepper

    def counting_stepper(*args):
        step = stepper(*args)

        def counted(theta, *rest):
            steps.append(theta.copy())
            new = step(theta, *rest)
            if returned is not None:
                returned.append(new.copy())
            return new
        return counted

    monkeypatch.setattr(harness, "_stepper", counting_stepper)
    return steps


def record_losses(monkeypatch):
    """Record the (proj, ||theta||^2) arrays of each loss evaluation of the
    batched kernel; the comparators evaluate theirs through losses.eval_f_rows."""
    calls = []
    value = harness._value

    def recording(loss, proj, sq, y):
        calls.append((proj.copy(), sq.copy()))
        return value(loss, proj, sq, y)

    monkeypatch.setattr(harness, "_value", recording)
    return calls


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
    # ||omega_t*|| is taken as |c| ||x_t|| against the norm of the row c x_t here
    assert trace.growth == pytest.approx(ref["growth"], rel=1e-15, abs=0.0)
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
    def clean_comparators(comp, is_outlier=None, radius=math.inf, chunk=None):
        comp = np.asarray(comp, float)
        T = len(comp)
        monkeypatch.setattr(harness, "minimizer_rows", lambda loss, X, y, nx2: comp[X[:, 0].astype(int)])
        mask = np.zeros(T, bool) if is_outlier is None else np.asarray(is_outlier)
        cfg = preset_config("svm", T=T, seeds=[1], k=int(mask.sum()), radius=radius)
        acc = harness._Comparators(cfg, [cfg.k], keep=True)
        X = np.repeat(np.arange(T, dtype=float)[:, None], 2, axis=1)   # row t looks up comp[t]
        for t0 in range(0, T, chunk or T):
            rows = slice(t0, t0 + (chunk or T))
            acc.add(t0, X[rows], np.zeros(T)[rows], [(np.zeros(T)[rows], np.flatnonzero(mask[rows]))])
        trace = acc.trace(0, np.zeros(T), np.zeros(2))
        return trace.v_t, trace.comparator_radius, trace.comparator_clean

    for chunk in (None, 1, 2):   # the chunking does not change a figure
        v_t, radius, rows = clean_comparators([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [False, True, False], chunk=chunk)
        assert v_t == 2.0 and radius == math.sqrt(2.0)
        np.testing.assert_array_equal(rows, [[1.0, 0.0]])  # only the corrupted round is kept
    assert clean_comparators(np.ones((2, 2)))[0] == 0.0
    assert clean_comparators([[3.0, 4.0]])[:2] == (0.0, 5.0)  # single round, empty sum
    # a finite radius projects the comparators before V_T and the radius are taken
    v_t, radius, rows = clean_comparators([[3.0, 4.0], [0.0, 0.5]], [True, False], radius=1.0, chunk=1)
    assert v_t == pytest.approx(math.hypot(0.6, 0.3)) and radius == pytest.approx(1.0)
    np.testing.assert_allclose(rows, [[0.6, 0.8]])


@pytest.mark.parametrize("keep", [False, True])
def test_accounting_rejects_more_corrupted_rounds_than_k(keep):
    # a k fed k + 1 corrupted rounds is an error, not a silently dropped row
    cfg = preset_config("svm", T=10, seeds=[1], k=2)
    X, y = np.ones((10, 2)), np.ones(10)
    acc = harness._Comparators(cfg, [2, 5], keep=keep)
    acc.add(0, X[:4], y[:4], [(-y[:4], np.array([1])), (-y[:4], np.array([0, 1, 2]))])
    with pytest.raises(ValueError, match="3 corrupted rounds fed to the accounting of k = 2"):
        acc.add(4, X[4:], y[4:], [(-y[4:], np.array([0, 5])), (-y[4:], np.array([0]))])


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

def test_episode_regret_zero_when_started_at_minimizer(monkeypatch):
    # y = 0 stream makes the origin the exact minimizer, which is theta_1
    monkeypatch.setattr(st, "resolve_theta_star", lambda gen, rngs: np.zeros(gen.dim))
    gen = st.CleanGenerator(kind="ridge", dim=3, noise_std=0.0)
    cfg = RunConfig(T=1, lam=0.5, params=LearnParams(1, 1),
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
    losses = record_losses(monkeypatch)
    returned = []
    taken = count_steps(monkeypatch, returned)
    cfg = preset_config("ridge", T=100, seeds=[5], learner=harness.LEARN, k=10, radius=0.05)
    trace = run_episode(cfg, 5)
    assert trace.comparator_radius <= 0.05 + 1e-12
    assert len(losses) == 100
    played = np.concatenate(taken + returned[-1:])[:, 0]   # the actions of rounds 1 .. T
    assert len(played) == 100
    assert np.linalg.norm(played, axis=1).max() <= 0.05 + 1e-12
    np.testing.assert_array_equal(np.concatenate([sq[0] for _, sq in losses]), np.vecdot(played, played))
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
    for learner in (harness.OGD, harness.LEARN, harness.EXPERTS):   # they filter no round
        assert preset_config("svm", T=10, seeds=[1], learner=learner, k=10).resolve_topk_budget() == 0


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
    gen = preset_config("svm").generator
    with pytest.raises(ValueError):
        RunConfig(T=0, lam=1e-4, params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[1])
    with pytest.raises(ValueError):
        RunConfig(T=5, lam=1e-4, params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[])
    with pytest.raises(ValueError):  # the bound constants need m = lam > 0
        RunConfig(T=5, lam=0.0, params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[1])
    for lam in (math.inf, math.nan):   # a run on either would diverge
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            preset_config("svm", T=5, seeds=[1], lam=lam)
    # b = inf shuts the gate for good and a = inf fixes it at 1/(1+b)
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="a and b must be positive and finite"):
            LearnParams(a, b)
    with pytest.raises(ValueError, match="feature_std must be positive and finite"):
        dataclasses.replace(gen, feature_std=math.inf)
    for bad in (dict(noise_std=math.inf), dict(noise_std=math.nan), dict(margin_band=math.nan),
                dict(margin_band=math.inf)):   # a NaN margin band would flip no label
        with pytest.raises(ValueError, match="invalid noise/mislabel configuration"):
            dataclasses.replace(gen, **bad)
    with pytest.raises(ValueError, match="finite domain radius"):  # G and L come from the stream
        RunConfig(T=5, lam=1e-4, params=LearnParams(1, 1),
                  generator=gen, learner=harness.OGD, k=0, seeds=[1],
                  alpha=harness.THEORETICAL)
    for bad in (dict(alpha=0.0), dict(alpha=-1.0), dict(alpha=math.inf), dict(alpha=math.nan),
                dict(alpha="fixed"), dict(alpha="default"),
                dict(radius=0.0), dict(radius=-2.0), dict(radius=math.nan)):
        with pytest.raises(ValueError):
            preset_config("svm", T=5, seeds=[1], **bad)
    preset_config("svm", T=5, seeds=[1], alpha=0.5, radius=math.inf)   # legal edges
    preset_config("svm", T=5, seeds=[0, 2, 1])
    for bad, message in (([3, 3, 4], "distinct"), ([-3], "non-negative"), ([2, -1], "non-negative")):
        with pytest.raises(ValueError, match=f"seeds must be {message}"):
            preset_config("svm", T=5, seeds=bad)
    # the expert pool reads no alpha
    for bad in (dict(alpha=0.5), dict(alpha=harness.THEORETICAL, radius=3.0)):
        with pytest.raises(ValueError, match="alpha must be unset"):
            preset_config("svm", T=5, seeds=[1], learner=harness.EXPERTS, **bad)
    with pytest.raises(ValueError, match="radius must be inf"):   # nor a radius: its grid holds its own
        preset_config("svm", T=5, seeds=[1], learner=harness.EXPERTS, radius=0.05)
    # each data model is fit with its own loss, whose lam the config sets
    assert preset_config("svm", T=5, seeds=[1]).loss == RoundLoss("hinge_svm", 1e-4)
    assert preset_config("ridge", T=5, seeds=[1], lam=0.5).loss == RoundLoss("ridge", 0.5)
    with pytest.raises(ValueError, match="seeds must be non-negative, got -1"):   # run_episode's seed too
        run_episode(preset_config("svm", T=5, seeds=[1]), -1)


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
                        radius=2.0, alpha=harness.THEORETICAL)
    consts = derive_constants(cfg.params, G=1.0, L=3.0, m=cfg.loss.lam, B=0.0)
    chk = check_regret_bound(curve, consts, cfg)
    assert chk.bound == pytest.approx(consts.xi * consts.psi * 2.0 * 2.0 * 4.0, rel=1e-12)
    assert chk.holds


def test_presets_are_shared_frozen_values():
    # every config of a preset holds the table's own params and generator, which no config can change
    cfg = preset_config("svm")
    assert cfg.params is harness.PRESETS["svm"]["params"]
    assert cfg.generator is harness.PRESETS["svm"]["generator"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.params.a = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.generator.dim = 7
    again = preset_config("svm")
    assert (again.params.a, again.generator.dim) == (1e4, 2)   # the table's values
    with pytest.raises(ValueError, match="unknown preset 'lasso'"):
        preset_config("lasso")


def test_theorem_check_holds_across_k():
    base = preset_config("ridge", T=200)
    for k in (0, 14, 34):
        chk, curve, consts = run_theorem_check(T=200, k=k, seed=7)
        assert chk.holds, f"k={k}: measured {chk.measured} > bound {chk.bound}"
        assert curve.n_outliers == k
        # L is the Hessian bound lam + 2 max ||x_t||^2 of the episode's own stream
        X = st.episode_stream(base.generator, 200, k, 7)[1]
        assert consts.L == base.loss.lam + 2.0 * float(np.einsum("ij,ij->i", X, X).max())


@pytest.mark.parametrize("family", ["ridge", "svm"])
def test_growth_constants_hold_on_the_stream(family):
    # ||grad_f_t(theta)|| <= G + L ||theta - omega_t*|| on every emitted round,
    # corrupted ones included, at theta around the unprojected minimizer
    # omega_t*: along +-x_t, where the ridge pair is tight, and in random
    # directions, at log-uniform distances
    rng = np.random.default_rng(11)
    cfg = preset_config(family, T=300, seeds=[3], learner=harness.LEARN, k=30, radius=5.0,
                        alpha=harness.THEORETICAL)
    G, L = run_episode(cfg, 3).growth
    _, X, _, y_emitted, _ = st.episode_stream(cfg.generator, cfg.T, cfg.k, 3)
    margins = []
    for x, y in zip(X, y_emitted):
        s = SideInfo(x=x, y=float(y))
        omega = minimizer_f(cfg.loss, s)
        dirs = rng.standard_normal((6, len(x)))
        dirs[:2] = x, -x
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for r, u in zip(np.exp(rng.uniform(math.log(1e-3), math.log(1e4), len(dirs))), dirs):
            theta = omega + r * u
            lhs = float(np.linalg.norm(grad_f(cfg.loss, s, theta)))
            rhs = G + L * float(np.linalg.norm(theta - omega))
            margins.append((rhs - lhs) / max(1.0, lhs, rhs))
    assert min(margins) >= -1e-12
    if family == "ridge":
        assert G == 0.0 and min(margins) <= 1e-12   # attained on the round of largest ||x_t||
    else:
        assert L == cfg.loss.lam


def test_ridge_growth_is_the_streams_hessian_bound(monkeypatch):
    # L = lam + 2 max_t ||x_t||^2 exactly, over every chunk of every seed
    seeds = [1, 2, 3]
    cfg = preset_config("ridge", T=200, seeds=seeds, learner=harness.OGD, k=20)
    monkeypatch.setattr(harness, "CHUNK_BYTES", 7 * len(seeds) * (cfg.generator.dim + 1) * 8)
    for seed, trace in zip(seeds, run_episodes(cfg)):
        X = st.episode_stream(cfg.generator, cfg.T, cfg.k, seed)[1]
        assert trace.growth == (0.0, cfg.loss.lam + 2.0 * float(np.einsum("ij,ij->i", X, X).max()))


def test_run_cell_aggregates():
    cfg = preset_config("svm", T=120, seeds=[1, 2, 3], learner=harness.LEARN, k=11)
    res = run_cell(cfg)
    assert len(res.curves) == 3 and len(res.final_thetas) == 3
    assert res.mean.shape == (120,) and res.stderr.shape == (120,)


def test_experts_learner_through_harness(monkeypatch):
    cfg = preset_config("svm", T=150, seeds=[1], learner=harness.EXPERTS, k=12)
    pools = capture_pools(monkeypatch)
    curve = clean_dynamic_regret(run_episode(cfg, 1))
    assert math.isfinite(curve.final)
    assert len(pools) == 1
    assert np.all(np.isfinite(pools[0].log_weights))
    grid = pools[0].grid
    assert (grid.a_max, grid.epsilon) == (math.sqrt(150), 1.0)   # the pool the paper's experiments run
    assert grid.n == 600 <= 150 * math.ceil(math.log2(grid.a_max))


def assert_stops_at_earliest_divergence(monkeypatch, seeds):
    """ridge OGD with alpha = 1 diverges; the error names the seed and round
    of the batch's earliest non-finite loss, and no step is taken at or after
    that round."""
    cfg = preset_config("ridge", T=2000, seeds=seeds, learner=harness.OGD, k=0, alpha=1.0)
    first = {}
    for seed in seeds:
        with pytest.raises(RuntimeError, match=f"seed {seed}: non-finite loss at round") as err:
            per_seed_episode(cfg, seed)
        first[seed] = int(str(err.value).split("round ")[1].split()[0])
    seed = min(seeds, key=lambda s: (first[s], seeds.index(s)))
    steps = count_steps(monkeypatch)
    with pytest.raises(RuntimeError, match=f"seed {seed}: non-finite loss at round {first[seed]} of 2000"):
        run_episodes(cfg)
    assert len(steps) == first[seed] - 1
    assert np.isfinite(steps[-1]).all()
    return first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_stops_at_first_non_finite_loss(monkeypatch):
    # seed 1 has its first non-finite loss at round 148
    assert assert_stops_at_earliest_divergence(monkeypatch, [1]) == {1: 148}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_batch_stops_at_earliest_non_finite_loss(monkeypatch):
    first = assert_stops_at_earliest_divergence(monkeypatch, [1, 3, 2])
    assert min(first.values()) < first[1]   # the earliest is not the batch's first seed


def test_learn_round_evaluates_loss_once(monkeypatch):
    from robust_oco import losses

    for seeds in ([1], [1, 2, 3]):
        with monkeypatch.context() as m:
            calls = []

            def counting(fn):
                def wrapped(*args):
                    calls.append(1)
                    return fn(*args)
                return wrapped

            m.setattr(harness, "eval_f", counting(harness.eval_f))
            m.setattr(losses, "eval_f", counting(losses.eval_f))
            evaluated = record_losses(m)
            steps = count_steps(m)
            cfg = preset_config("svm", T=80, seeds=seeds, learner=harness.LEARN, k=8)
            run_episodes(cfg)
            assert calls == []   # the per-round functions are not called
            assert len(evaluated) == 80 and all(proj.shape == (1, len(seeds)) for proj, _ in evaluated)
            assert len(steps) == 79   # the action of round T is the last one played


# --- the batched kernel against the per-seed loop ------------------------------

T_REF = 60


@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("k", [0, st.floor_power(T_REF, 2, 3), T_REF])   # k = T: every round warms Top-k up
@pytest.mark.parametrize("radius", [math.inf, 0.05])
@pytest.mark.parametrize("family", ["svm", "ridge"])
@pytest.mark.parametrize("learner", harness.LEARNERS)
def test_batched_episodes_match_per_seed_loop(learner, family, radius, k, n_seeds):
    # every dot product is the same BLAS dot and every other operation is
    # element-wise, so the batch equals the per-seed loop bit for bit; the
    # experts cell's stacked pool takes each seed's row-count-dependent sums
    # over that seed's own rows
    seeds = [4, 5, 6][:n_seeds]
    if learner == harness.EXPERTS and math.isfinite(radius):   # the pool's grid holds its own radii
        with pytest.raises(ValueError, match="radius must be inf"):
            preset_config(family, T=T_REF, seeds=seeds, learner=learner, k=k, radius=radius)
        return
    cfg = preset_config(family, T=T_REF, seeds=seeds, learner=learner, k=k, radius=radius)
    traces = run_episodes(cfg)
    assert len(traces) == n_seeds
    for seed, trace in zip(seeds, traces):
        f_emitted, theta = per_seed_episode(cfg, seed)
        np.testing.assert_array_equal(trace.f_emitted, f_emitted)
        np.testing.assert_array_equal(trace.theta, theta)   # played in round T, before the last step
        assert_matches_reference(cfg, seed)
        assert_traces_equal(trace, run_episode(cfg, seed))   # the batch does not mix seeds


def test_theoretical_step_matches_per_seed_loop():
    # alpha depends on each seed's V_T: the comparator pass runs first, then the loop
    cfg = preset_config("ridge", T=T_REF, seeds=[1, 2, 3], learner=harness.LEARN, k=7, radius=5.0,
                        alpha=harness.THEORETICAL)
    for seed, trace in zip(cfg.seeds, run_episodes(cfg)):
        f_emitted, theta = per_seed_episode(cfg, seed)
        np.testing.assert_array_equal(trace.f_emitted, f_emitted)
        np.testing.assert_array_equal(trace.theta, theta)
        assert_matches_reference(cfg, seed)


@pytest.mark.parametrize("config", [
    *(dict(family=f, learner=lr) for f in ("svm", "ridge")
      for lr in (harness.OGD, harness.LEARN, harness.TOPK, harness.UTOPK, harness.EXPERTS)),
    dict(family="ridge", learner=harness.LEARN, radius=5.0, alpha=harness.THEORETICAL),
    dict(family="svm", learner=harness.LEARN, radius=5.0, alpha=harness.THEORETICAL),
], ids=lambda c: "-".join(str(v) for v in c.values()))
def test_chunking_does_not_change_an_episode(monkeypatch, config):
    config = dict(config)
    bounded = config["learner"] != harness.EXPERTS   # the pool's grid holds its own radii
    cfg = preset_config(config.pop("family"), T=T_REF, seeds=[7, 8, 9], k=15,
                        **{"radius": 0.05 if bounded else math.inf, **config})
    row_bytes = len(cfg.seeds) * (cfg.generator.dim + 1) * 8   # a round's features and losses, one cell
    runs = []
    for chunk_bytes in (1, 7 * row_bytes, T_REF * row_bytes):   # 1, 7 and T rounds per chunk
        monkeypatch.setattr(harness, "CHUNK_BYTES", chunk_bytes)
        runs.append(run_episodes(cfg))
    for traces in runs[1:]:
        for a, b in zip(runs[0], traces):
            assert_traces_equal(a, b)


# --- run_cells: the learners of one stream setting share its draw ----------------

def bits(a):
    """The float64 bit patterns of a: equal only where the floats are, signs of zero included."""
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_cells_equal(a, b):
    assert a.config == b.config
    for ca, cb in zip(a.curves, b.curves, strict=True):
        assert bits(ca.final) == bits(cb.final)
        assert (ca.v_t, ca.delta_s, ca.comparator_radius, ca.b_clean, ca.n_outliers) == \
            (cb.v_t, cb.delta_s, cb.comparator_radius, cb.b_clean, cb.n_outliers)
    for ta, tb in zip(a.final_thetas, b.final_thetas, strict=True):
        np.testing.assert_array_equal(bits(ta), bits(tb))
    np.testing.assert_array_equal(bits(a.mean), bits(b.mean))
    np.testing.assert_array_equal(bits(a.stderr), bits(b.stderr))


@pytest.mark.parametrize("family", ["svm", "ridge"])
@pytest.mark.parametrize("setting", [
    dict(),                                                  # the expert pool runs too
    dict(radius=0.05),
    dict(radius=5.0, alpha=harness.THEORETICAL),             # one accounting pass, one redraw
], ids=["unbounded", "radius", "theoretical"])
def test_run_cells_match_run_cell(monkeypatch, family, setting):
    # every (k, learner) cell of the stacked pass equals its cell run alone (a
    # one-cell call) and the per-seed loop, bit for bit, with each episode spread
    # over 4 chunks of the shared X/Y buffers; at k = 15 the topk and utopk
    # budgets differ (15 and 11), and at k = T every topk round is a warm-up
    learners = [harness.OGD, harness.LEARN, harness.TOPK, harness.UTOPK]
    if not setting:   # the pool's grid holds its own radii and step sizes
        learners.append(harness.EXPERTS)
    seeds, ks = [4, 5, 6], [15, T_REF]
    config = preset_config(family, T=T_REF, seeds=seeds, learner=harness.OGD, k=15, **setting)
    cells = len(ks) * len(learners)   # a chunk holds the features and every cell's losses
    monkeypatch.setattr(harness, "CHUNK_BYTES", 17 * len(seeds) * (config.generator.dim + cells) * 8)
    chunks = []
    draw = st.EpisodeStream.draw
    monkeypatch.setattr(st.EpisodeStream, "draw", lambda self, n: chunks.append(n) or draw(self, n))
    stacked = harness.run_cells(config, learners, ks)
    assert chunks[:len(seeds) * 4] == [17] * len(seeds) * 3 + [9] * len(seeds)
    assert len(stacked) == len(ks) * len(learners)
    for (k, lr), res in zip([(k, lr) for k in ks for lr in learners], stacked, strict=True):
        assert res.config == dataclasses.replace(config, learner=lr, k=k)
        assert_cells_equal(res, run_cell(res.config))
        for seed, theta in zip(seeds, res.final_thetas):
            np.testing.assert_array_equal(bits(theta), bits(per_seed_episode(res.config, seed)[1]))
    warm = stacked[len(learners) + learners.index(harness.TOPK)]   # k = T, every round filtered: theta stays +0.0
    assert not any(bits(theta).any() for theta in warm.final_thetas)


@pytest.mark.parametrize("family, setting", [
    ("svm", dict()),
    ("ridge", dict(radius=0.05)),
    ("ridge", dict(radius=5.0, alpha=harness.THEORETICAL)),   # a step size per (k, seed)
], ids=["svm", "ridge-radius", "ridge-theoretical"])
def test_regret_accounting_matches_the_traces(monkeypatch, family, setting):
    # the chunk-by-chunk accounting of a stacked pass equals clean_dynamic_regret
    # and aggregate_runs on each cell's whole traces, bit for bit: 17-round chunks
    # and a last one of one round, over 10 seeds, where a lone column would sum
    # its seeds pairwise
    T, seeds, ks = 52, list(range(1, 11)), [0, 5, 13]
    learners = [harness.OGD, harness.LEARN, harness.UTOPK]
    config = preset_config(family, T=T, seeds=seeds, k=0, **setting)
    cells = len(ks) * len(learners)
    monkeypatch.setattr(harness, "CHUNK_BYTES", 17 * len(seeds) * (config.generator.dim + cells) * 8)
    results = harness.run_cells(config, learners, ks)
    for res in results:
        curves = [clean_dynamic_regret(trace) for trace in run_episodes(res.config)]
        mean, stderr = aggregate_runs(curves)
        np.testing.assert_array_equal(bits(res.mean), bits(mean))
        np.testing.assert_array_equal(bits(res.stderr), bits(stderr))
        for got, want in zip(res.curves, curves, strict=True):
            assert got.series is None and bits(got.final) == bits(want.final)
            assert (got.v_t, got.delta_s, got.comparator_radius, got.b_clean, got.n_outliers) == \
                (want.v_t, want.delta_s, want.comparator_radius, want.b_clean, want.n_outliers)
    assert any(c.delta_s > 0 for res in results for c in res.curves)


def test_a_filtered_row_keeps_its_action_bit_for_bit():
    # a Top-k seed in its warm-up keeps theta by selection: -0.0 stays -0.0,
    # where theta - alpha * 0 * g would give +0.0; the ogd block moves off it
    cfg = preset_config("svm", T=T_REF, seeds=[1, 2], learner=harness.TOPK, k=T_REF)
    step = harness._stepper([cfg, dataclasses.replace(cfg, learner=harness.OGD)], np.full((1, 2, 1), 0.5))
    theta = np.array([[[-0.0, -0.0], [-0.0, 3.0]]] * 2)
    x, y = np.array([[[1e100, 1e100], [1.0, -2.0]]]), np.array([[1.0, -1.0]])
    new = step(theta.copy(), x, y, np.vecdot(x, theta), np.zeros((2, 2)))
    np.testing.assert_array_equal(bits(new[0]), bits(theta[0]))
    assert (bits(new[1, 0]) != bits(theta[1, 0])).all()


def test_a_shared_pass_holds_one_copy_of_the_comparators():
    # the learners' traces of a seed share its accounting's arrays: the corrupted
    # rounds' comparators are filled once per seed, not copied once per learner
    cfg = preset_config("ridge", T=T_REF, seeds=[1, 2], learner=harness.OGD, k=20)
    cells = [dataclasses.replace(cfg, learner=lr) for lr in (harness.OGD, harness.LEARN, harness.TOPK)]
    for seed_traces in zip(*harness._episodes(cells)):
        for trace in seed_traces[1:]:
            for field in ("is_outlier", "f_at_comparator", "comparator_clean", "comparator_emitted"):
                assert getattr(trace, field) is getattr(seed_traces[0], field), field


def test_run_cells_rejects_an_empty_list():
    with pytest.raises(ValueError, match="at least one learner"):
        harness.run_cells(preset_config("svm", T=T_REF, seeds=[1]), [])


def test_run_cells_rejects_a_learner_the_setting_does_not_admit(monkeypatch):
    # RunConfig's own check, before any stream is built: the pool's grid holds its own radii
    streams = []

    class CountedStream(st.EpisodeStream):
        def __init__(self, *args):
            streams.append(args)
            super().__init__(*args)

    monkeypatch.setattr(st, "EpisodeStream", CountedStream)
    cfg = preset_config("svm", T=T_REF, seeds=[1, 2], learner=harness.OGD, k=6, radius=0.05)
    with pytest.raises(ValueError, match="radius must be inf"):
        harness.run_cells(cfg, [harness.OGD, harness.EXPERTS])
    assert streams == []


def assert_stack_stops_at_earliest_divergence(monkeypatch, cfg, order):
    """The error of a stacked pass names the learner, k, seed and round of the
    earliest non-finite loss over all its rows, the first learner and then the
    first seed on a tie, and no step is taken at or after that round."""
    first = {}
    for i, learner in enumerate(order):
        for j, seed in enumerate(cfg.seeds):
            try:
                per_seed_episode(dataclasses.replace(cfg, learner=learner), seed)
            except RuntimeError as err:
                first[int(str(err).split("round ")[1].split()[0]), i, j] = learner, seed
    (t, _, _), (learner, seed) = min(first.items())
    steps = count_steps(monkeypatch)
    message = rf"^learner {learner}, k {cfg.k}, seed {seed}: non-finite loss at round {t} of {cfg.T}; the run "
    with pytest.raises(RuntimeError, match=message + "diverged$"):
        harness.run_cells(cfg, order)
    assert len(steps) == t - 1
    assert np.isfinite(steps[-1]).all()
    return {key: value[0] for key, value in first.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("order", [(harness.OGD, harness.LEARN), (harness.LEARN, harness.OGD),
                                   (harness.UTOPK, harness.OGD)])
def test_divergence_in_a_shared_pass_names_the_learner(monkeypatch, order):
    # ridge OGD with alpha = 1 diverges and the gated learner does not; utopk
    # diverges too, later in the same (first) chunk: the earliest round wins
    # over the learner order
    cfg = preset_config("ridge", T=2000, seeds=[1, 3, 2], learner=harness.OGD, k=10, alpha=1.0)
    first = assert_stack_stops_at_earliest_divergence(monkeypatch, cfg, order)
    assert set(first.values()) == set(order) - {harness.LEARN}
    rows = harness.CHUNK_BYTES // (len(cfg.seeds) * (cfg.generator.dim + len(order)) * 8)   # rounds per chunk
    assert max(t for t, _, _ in first) <= rows
    assert math.isfinite(run_cell(dataclasses.replace(cfg, learner=harness.LEARN)).mean[-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("order", [(harness.TOPK, harness.OGD), (harness.OGD, harness.UTOPK, harness.TOPK)])
def test_divergence_tie_goes_by_learner_order(monkeypatch, order):
    # at k = 0 topk and utopk are ogd, so every learner diverges at the same rounds
    cfg = preset_config("ridge", T=400, seeds=[1, 3, 2], learner=harness.OGD, k=0, alpha=1.0)
    first = assert_stack_stops_at_earliest_divergence(monkeypatch, cfg, order)
    assert len({t for t, _, _ in first}) == len(cfg.seeds)   # each seed's round, for every learner
    assert min(first)[1:] == (0, 2)   # the first learner and seed 2 of [1, 3, 2]
