import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    SeedPool,
    capture_pools,
    chunk_round_bytes,
    episode_stream,
    force_chunk_rows,
    minimizer_f,
    reference_accounting,
    seed_aggregate_action,
    seed_pool_step,
)
from robust_oco import harness
from robust_oco import stream as st
from robust_oco.experts import build_grid
from robust_oco.harness import (
    EpisodeTrace,
    RegretCurve,
    RunConfig,
    aggregate_runs,
    check_regret_bound,
    clean_dynamic_regret,
    preset_config,
    run_cell,
    run_episode,
    run_episodes,
    run_theorem_check,
)
from robust_oco.learners import LearnerState, learn_step, ogd_step, theoretical_stepsize, topk_filter_step
from robust_oco.losses import LearnParams, RoundLoss, SideInfo, derive_constants, eta, eval_f, grad_f

EPS = np.finfo(float).eps


def make_trace(f_emitted, f_at_comp, is_outlier):
    """A trace by hand, with no comparator rows and zero path statistics."""
    is_outlier = np.asarray(is_outlier, bool)
    k = int(is_outlier.sum())
    return EpisodeTrace(
        is_outlier=is_outlier,
        theta=np.zeros(2),
        f_emitted=np.asarray(f_emitted, float),
        comparator_clean=np.zeros((k, 2)),
        comparator_emitted=np.zeros((k, 2)),
        f_at_comparator=np.asarray(f_at_comp, float),
        v_t=0.0,
        delta_s=0.0,
        comparator_radius=0.0,
        growth=(0.0, 0.0),
    )


def delta_S(trace):
    """The vector reference of delta_S: the largest ||omega_t* - theta_t*||
    over the trace's rows of the corrupted rounds' comparators; 0 when none."""
    diff = trace.comparator_emitted - trace.comparator_clean
    return float(np.linalg.norm(diff, axis=1).max(initial=0.0))


def per_seed_episode(cfg, seed):
    """The per-seed episode loop that run_episodes replaced, kept as its
    reference: one SideInfo and one step of a LearnerState, or of the seed's
    own expert pool (conftest.SeedPool), per round. Returns f_t(s_t, theta_t)
    of every round and the action played in round T. A theoretical step size
    is the one the program derives from its own V_T and (G, L), so that the
    loops compare bit for bit; the accounting itself is checked against
    reference_accounting."""
    _, X, _, y_emitted, _ = episode_stream(cfg.generator, cfg.T, cfg.k, seed)
    if cfg.alpha == harness.THEORETICAL:
        trace = run_episode(cfg, seed)
        psi = derive_constants(cfg.params, *trace.growth, m=cfg.lam).psi
        alpha = theoretical_stepsize(cfg.radius, trace.v_t, psi, cfg.T)
    else:
        alpha = 1.0 / math.sqrt(cfg.T) if cfg.alpha is None else cfg.alpha
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
    """Record the stacked (cells, seeds, d) actions at each call of the
    stacked loop's step, step(theta, new, x, y, u, fast), and into `returned`,
    if given, the next actions each call writes into new."""
    steps = []
    step = harness._Play.step

    def counted(self, theta, new, *rest):
        steps.append(theta.copy())
        new = step(self, theta, new, *rest)
        if returned is not None:
            returned.append(new.copy())
        return new

    monkeypatch.setattr(harness._Play, "step", counted)
    return steps


def record_gates(monkeypatch):
    """Record the gates of each call of the stacked loop's checked gate,
    harness.eta, and of its unchecked one, harness._gate, as two lists."""
    checked, unchecked = [], []
    eta, gate = harness.eta, harness._gate

    def checked_gate(params, f, out=None):
        checked.append(eta(params, f, out=out).copy())
        return out

    def unchecked_gate(params, f, out, z):
        unchecked.append(gate(params, f, out, z).copy())
        return out

    monkeypatch.setattr(harness, "eta", checked_gate)
    monkeypatch.setattr(harness, "_gate", unchecked_gate)
    return checked, unchecked


def record_losses(monkeypatch):
    """Record the (u, ||theta||^2) arrays of each loss evaluation of the
    stacked loop, u the link losses._link forms of <x, theta> and y; the
    comparators evaluate theirs through losses._value."""
    calls = []
    value = harness._link_value

    def recording(loss, u, sq, out=None):
        calls.append((u.copy(), sq.copy()))
        return value(loss, u, sq, out=out)

    monkeypatch.setattr(harness, "_link_value", recording)
    return calls


def assert_within_ulps(got, want, bound, name):
    """|got - want| <= bound, element by element."""
    excess = np.abs(np.asarray(got, float) - want) - bound
    assert excess.max(initial=-1.0) <= 0.0, f"{name}: off by more than its bound, by {excess.max()}"


def assert_matches_reference(cfg, seed):
    """run_episode's accounting against the full-array reference. The
    accounting reads a figure off its comparator's scale c_t (theta_t* = c_t
    x_t) where the reference reads it off the (T, d) rows, so these agree
    within bounds written from the formulas: each way of forming a figure
    rounds a d-term sum of squares (at most d - 1 roundings, Higham's gamma)
    and at most 8 other operations (the products, squares, scale and root,
    and a projection's norm, ratio and product), so the two differ by at most
    2 (d + 8) ulps of the terms the figure sums. Those terms are ||theta_t*||
    for the comparator radius; ||theta_t*|| + ||omega_t*|| on the corrupted
    rounds for delta_S; the regularizer and the link's parts, with signs
    aligned (f_terms), for f_t(s_t, theta_t*), twice over, as the ridge link
    is squared; and, under a finite radius, each row's norm for its entries
    and ||theta_t*|| + ||theta_{t+1}*|| for each step of V_T, plus 2 T ulps
    of V_T for the sum of its T - 1 steps. The outlier mask, the unprojected
    rows and V_T are the same operations in both, bit for bit; (G, L) reads
    ||omega_t*|| as |c| ||x_t|| against the norm of the row c x_t here."""
    trace = run_episode(cfg, seed)
    ref = reference_accounting(cfg, seed)
    mask = ref["is_outlier"]
    ulps = 2 * (cfg.generator.dim + 8) * EPS
    norms = np.linalg.norm(ref["comp_clean"], axis=1)
    pair = norms[mask] + np.linalg.norm(ref["comp_emitted"][mask], axis=1)
    np.testing.assert_array_equal(trace.is_outlier, mask)
    assert trace.comparator_clean.shape == trace.comparator_emitted.shape == (cfg.k, cfg.generator.dim)
    assert_within_ulps(trace.f_at_comparator, ref["f_at_comparator"], 2 * ulps * ref["f_terms"], "f_at_comparator")
    assert_within_ulps(trace.comparator_radius, ref["comparator_radius"], ulps * ref["comparator_radius"],
                       "comparator_radius")
    for want in (ref["delta_s"], delta_S(trace)):
        assert_within_ulps(trace.delta_s, want, ulps * pair.max(initial=0.0), "delta_s")
    rows = ((trace.comparator_clean, ref["comp_clean"][mask]), (trace.comparator_emitted, ref["comp_emitted"][mask]))
    if math.isfinite(cfg.radius):
        steps = (norms[1:] + norms[:-1]).sum()
        assert_within_ulps(trace.v_t, ref["v_t"], ulps * steps + 2 * cfg.T * EPS * ref["v_t"], "v_t")
        for got, want in rows:
            assert_within_ulps(got, want, ulps * np.linalg.norm(want, axis=1, keepdims=True), "comparator rows")
    else:
        assert trace.v_t == ref["v_t"]
        for got, want in rows:
            np.testing.assert_array_equal(got, want)
    assert trace.growth == pytest.approx(ref["growth"], rel=1e-15, abs=0.0)
    curve = clean_dynamic_regret(trace)
    assert (curve.v_t, curve.delta_s, curve.comparator_radius) == (trace.v_t, trace.delta_s, trace.comparator_radius)
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


def svm_features(rows):
    """Features and responses whose closed-form svm comparators are the given
    rows, exactly: x_t = v_t / 4 and y_t = 4 ||x_t||^2 make the hinge scale
    y_t / max(lam, ||x_t||^2) exactly 4 on rows of short binary fractions,
    and 0 on a zero row."""
    X = np.asarray(rows, float) / 4.0
    return X, 4.0 * np.vecdot(X, X)


def account(X, y_clean, y_emitted=None, is_outlier=None, radius=math.inf, chunk=None):
    """One seed's svm rounds, emitted as y_clean unless y_emitted is given,
    fed to a pass's comparator accounting chunk rounds at a time (all at
    once by default); returns the seed's EpisodeTrace."""
    T = len(X)
    y_emitted = y_clean if y_emitted is None else y_emitted
    mask = np.zeros(T, bool) if is_outlier is None else np.asarray(is_outlier)
    cfg = preset_config("svm", T=T, seeds=[1], k=int(mask.sum()), radius=radius)
    chunk = chunk or T
    acc = harness._Comparators(cfg, [cfg.k], chunk, keep=True)
    for t0 in range(0, T, chunk):   # the stacked shapes of one seed and one k
        rows = slice(t0, t0 + chunk)
        acc.add(t0, X[rows, None], y_clean[rows, None], y_emitted[rows, None, None], mask[None, None, rows])
    return acc.trace(0, 0, np.zeros(T), np.zeros(2))


def test_path_length_examples():
    # V_T and the radius are read off the comparators of features built for them
    def clean_comparators(comp, is_outlier=None, radius=math.inf, chunk=None):
        trace = account(*svm_features(comp), is_outlier=is_outlier, radius=radius, chunk=chunk)
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


def test_delta_s_examples():
    # delta_S = max |c'_t - c_t| ||x_t|| over the corrupted rounds, on features built for it
    X, y = svm_features([[3.0, 4.0], [1.0, 1.0], [1.0, 0.0]])
    assert account(X, y).delta_s == 0.0  # no corrupted rounds
    # theta_t* = 0 on the corrupted rounds and omega_t* the rows: the largest displacement
    trace = account(X, y * [0.0, 1.0, 0.0], y, [True, False, True])
    assert trace.delta_s == 5.0 == delta_S(trace)
    assert account(X, y, y, [True, True, True]).delta_s == 0.0  # corruption left the minimizer fixed
    # a flipped label flips omega_t* = -theta_t*: ||2 (1, 1)|| on the corrupted round
    assert account(X, y, y * [1.0, -1.0, 1.0], [False, True, False]).delta_s == math.sqrt(8.0)


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
    assert trace.delta_s > 0.0


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
    for k, (chk, curve, consts) in zip((0, 14, 34), run_theorem_check(7), strict=True):
        assert chk.holds, f"k={k}: measured {chk.measured} > bound {chk.bound}"
        assert curve.n_outliers == k
        # L is the Hessian bound lam + 2 max ||x_t||^2 of the episode's own stream
        X = episode_stream(base.generator, 200, k, 7)[1]
        assert consts.L == base.loss.lam + 2.0 * float(np.einsum("ij,ij->i", X, X).max())


@pytest.mark.parametrize("seed", [1, 7])
def test_theorem_check_is_one_pass_equal_to_each_k_alone(monkeypatch, seed):
    # verify's theorem block draws the seed's stream twice (the theoretical
    # step size's accounting, then the play) and plays its three k's as one stack;
    # each k's figures are, bit for bit, those of its run alone through the
    # whole trace
    draws, plays = [], []
    draw, play = st.EpisodeStream.draw, harness._Play
    monkeypatch.setattr(st.EpisodeStream, "draw", lambda stream, n: draws.append(n) or draw(stream, n))
    monkeypatch.setattr(harness, "_Play", lambda cells, *args: plays.append(len(cells)) or play(cells, *args))
    ks = st.k_grid(200)[:3]
    checks = run_theorem_check(seed)
    assert (len(draws), plays) == (2, [3])
    monkeypatch.undo()
    assert ks == [0, 14, 34]
    for k, (chk, curve, consts) in zip(ks, checks, strict=True):
        cfg = preset_config("ridge", T=200, seeds=[seed], k=k, radius=5.0, alpha=harness.THEORETICAL)
        trace = run_episode(cfg, seed)
        alone = clean_dynamic_regret(trace)
        alone_consts = derive_constants(cfg.params, *trace.growth, m=cfg.lam, B=alone.b_clean)
        alone_chk = check_regret_bound(alone, alone_consts, cfg)
        assert curve.n_outliers == alone.n_outliers == k
        got = (chk.holds, chk.measured, chk.bound, curve.v_t, curve.delta_s, curve.b_clean, curve.growth, consts)
        assert repr(got) == repr((alone_chk.holds, alone_chk.measured, alone_chk.bound, alone.v_t, alone.delta_s,
                                  alone.b_clean, trace.growth, alone_consts))


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
    _, X, _, y_emitted, _ = episode_stream(cfg.generator, cfg.T, cfg.k, 3)
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
    force_chunk_rows(monkeypatch, cfg, 1, 1, 7)
    for seed, trace in zip(seeds, run_episodes(cfg)):
        X = episode_stream(cfg.generator, cfg.T, cfg.k, seed)[1]
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
    paper = build_grid(math.sqrt(150), 1.0, 150)   # the pool the paper's experiments run
    np.testing.assert_array_equal(grid.step_sizes, paper.step_sizes)
    np.testing.assert_array_equal(grid.radii, paper.radii)
    assert grid.n == 600 <= 150 * math.ceil(math.log2(math.sqrt(150)))


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
            links, coefs = [], []
            link, coef = harness._link, harness._link_coef
            m.setattr(harness, "_link", lambda *args, **kw: links.append(1) or link(*args, **kw))
            m.setattr(harness, "_link_coef", lambda loss, u, *args, **kw: coefs.append(u.copy()) or
                      coef(loss, u, *args, **kw))
            cfg = preset_config("svm", T=80, seeds=seeds, learner=harness.LEARN, k=8)
            run_episodes(cfg)
            assert calls == []   # the per-round functions are not called
            assert len(evaluated) == 80 and all(u.shape == (1, len(seeds)) for u, _ in evaluated)
            assert len(steps) == 79   # the action of round T is the last one played
            # one link per round, which the loss and the gradient's coefficient both read
            assert len(links) == 80 and len(coefs) == 79
            for (u, _), u_coef in zip(evaluated, coefs):
                np.testing.assert_array_equal(bits(u_coef.reshape(u.shape)), bits(u))


# --- the batched kernel against the per-seed loop ------------------------------

T_REF = 60


@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("k", [0, st.k_grid(T_REF)[2], T_REF])   # k = T: every round warms Top-k up
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
    runs = []
    for rows in (1, 7, T_REF):
        force_chunk_rows(monkeypatch, cfg, 1, 1, rows)
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
    dict(radius=5.0, alpha=harness.THEORETICAL),             # a first draw of the clean rounds, then the pass
], ids=["unbounded", "radius", "theoretical"])
def test_run_cells_match_run_cell(monkeypatch, family, setting):
    # every (k, learner) cell of the stacked pass equals its cell run alone (a
    # one-cell call) and the per-seed loop, bit for bit, with each episode spread
    # over 4 chunks of the shared X/Y buffers; at k = 15 the topk and utopk
    # budgets differ (15 and 11), and at k = T every topk round is a warm-up.
    # The learn blocks are gated through one strided view, learn at an inner
    # place of each k's group and then at its first
    learners = [harness.OGD, harness.LEARN, harness.TOPK, harness.UTOPK]
    if not setting:   # the pool's grid holds its own radii and step sizes
        learners.append(harness.EXPERTS)
    seeds, ks = [4, 5, 6], [15, T_REF]
    config = preset_config(family, T=T_REF, seeds=seeds, learner=harness.OGD, k=15, **setting)
    force_chunk_rows(monkeypatch, config, len(ks) * len(learners), len(ks), 17)
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
    first = [harness.LEARN] + [lr for lr in learners if lr != harness.LEARN]
    by_cell = {(res.config.k, res.config.learner): res for res in stacked}
    for res in harness.run_cells(config, first, ks):
        assert_cells_equal(res, by_cell[res.config.k, res.config.learner])


@pytest.mark.parametrize("family, setting", [
    ("svm", dict()),
    ("ridge", dict(radius=0.05)),
    ("ridge", dict(radius=5.0, alpha=harness.THEORETICAL)),   # a step size per seed
], ids=["svm", "ridge-radius", "ridge-theoretical"])
def test_regret_accounting_matches_the_traces(monkeypatch, family, setting):
    # the chunk-by-chunk accounting of a stacked pass equals clean_dynamic_regret
    # and aggregate_runs on each cell's whole traces, bit for bit: 17-round chunks
    # and a last one of one round, over 10 seeds, where a lone column would sum
    # its seeds pairwise
    T, seeds, ks = 52, list(range(1, 11)), [0, 5, 13]
    learners = [harness.OGD, harness.LEARN, harness.UTOPK]
    config = preset_config(family, T=T, seeds=seeds, k=0, **setting)
    force_chunk_rows(monkeypatch, config, len(ks) * len(learners), len(ks), 17)
    results = harness.run_cells(config, learners, ks)
    for res in results:
        traces = run_episodes(res.config)
        curves = [clean_dynamic_regret(trace) for trace in traces]
        mean, stderr = aggregate_runs(curves)
        np.testing.assert_array_equal(bits(res.mean), bits(mean))
        np.testing.assert_array_equal(bits(res.stderr), bits(stderr))
        for got, want, trace in zip(res.curves, curves, traces, strict=True):
            assert got.series is None and bits(got.final) == bits(want.final)
            assert (got.v_t, got.delta_s, got.comparator_radius, got.b_clean, got.n_outliers, got.growth) == \
                (want.v_t, want.delta_s, want.comparator_radius, want.b_clean, want.n_outliers, trace.growth)
    assert any(c.delta_s > 0 for res in results for c in res.curves)


def test_a_filtered_row_keeps_its_action_bit_for_bit():
    # a Top-k seed in its warm-up keeps theta by selection: -0.0 stays -0.0,
    # where theta - alpha * 0 * g would give +0.0; the ogd block moves off it
    cfg = preset_config("svm", T=T_REF, seeds=[1, 2], learner=harness.TOPK, k=T_REF)
    cells = [cfg, dataclasses.replace(cfg, learner=harness.OGD)]   # one k, two learners: per_k = 2
    step = harness._Play(cells, np.full((1, 2, 1), 0.5), 1).step
    theta = np.array([[[-0.0, -0.0], [-0.0, 3.0]]] * 2)
    x, y = np.array([[[1e100, 1e100], [1.0, -2.0]]]), np.array([[[1.0, -1.0]]])   # y: (K, 1, R)
    u = harness._link(cfg.loss, np.vecdot(x, theta).reshape(1, 2, 2), y)
    new = step(theta.copy(), np.full_like(theta, np.nan), x, y, u, True)
    np.testing.assert_array_equal(bits(new[0]), bits(theta[0]))
    assert (bits(new[1, 0]) != bits(theta[1, 0])).all()


def drive_filter(cfg, norms):
    """The next actions, (rounds, R, 2), that a Top-k cell's stacked step
    writes round after round from theta = 0, where seed r's svm gradient is
    -x for x = (norms[t, r], 0)."""
    return drive_filters([cfg], norms[:, None])[:, 0]


def drive_filters(cells, norms):
    """The next actions, (rounds, C, R, 2), that the stacked step of C Top-k
    cells, one per k, writes round after round from theta = 0, where cell j's
    seed r has the svm gradient -y x for x = (1, 0) and y = norms[t, j, r]:
    with the link u = 0 < 1 the hinge is active and c = y, so -y x has the
    bits of -x for x = (y, 0) and y = 1."""
    assert all(cfg.loss.family == "hinge_svm" and cfg.learner == harness.TOPK for cfg in cells)
    C, R = len(cells), len(cells[0].seeds)
    step = harness._Play(cells, np.full((1, R, 1), 0.5), 1).step
    theta, x, u = np.zeros((C, R, 2)), np.zeros((1, R, 2)), np.zeros((C, 1, R))
    x[..., 0] = 1.0
    return np.array([step(theta, np.full_like(theta, np.nan), x, y[:, None], u, True).copy() for y in norms])


def test_filter_ties_zeros_and_nans_match_the_heap():
    # the budget-3 filter of each seed against topk_filter_step's heap, round
    # by round from theta = 0, bit for bit: ties at n = 2 low (filtered, and n
    # replaces the minimum) and at n = low (stepped), a zero gradient in
    # warm-up that leaves a 0 minimum (then every round is filtered), and nan
    # norms, which are filtered and never stored, so that the filter then acts
    # as the heap does on the rounds without them
    nan = math.nan
    norms = np.array([
        [4, 1, 2, 2, 2, 1, 5, 4, 4, 9, 8, 5, 16, 10],
        [0, 3, 0, 0, 0, 2, 1, 1, 2, 4, 0, 3, 6, 1],
        [nan, 1, 2, nan, 3, 1, nan, 4, 2, 9, 1, nan, 2, 18],
    ], dtype=float).T
    cfg = preset_config("svm", T=T_REF, seeds=[1, 2, 3], learner=harness.TOPK, k=3)
    new = drive_filter(cfg, norms)
    ties = {"2 low": 0, "low": 0}
    for r in range(3):
        state, low = LearnerState(theta=np.zeros(2), step_size=0.5), None
        for t, n in enumerate(norms[:, r]):
            if math.isnan(n):
                np.testing.assert_array_equal(bits(new[t, r]), bits(np.zeros(2)))
                continue
            state.theta = np.zeros(2)
            low = state.top_norms[0] if len(state.top_norms) == 3 else None
            _, filtered = topk_filter_step(state, SideInfo(np.array([n, 0.0]), 1.0), cfg.loss, 3)
            np.testing.assert_array_equal(bits(new[t, r]), bits(state.theta), err_msg=f"seed {r}, round {t}")
            assert n == 0 or (bits(new[t, r]) == bits(np.zeros(2))).all() == filtered   # a 0 step leaves 0
            ties["2 low"] += low is not None and n == 2 * low > 0 and filtered
            ties["low"] += low is not None and n == low > 0 and not filtered
    assert ties["2 low"] >= 3 and ties["low"] >= 3


@pytest.mark.parametrize("family, learner, T, k, chunk_rounds", [
    ("svm", harness.TOPK, 150, 150, None),    # budget T: every step is a warm-up
    ("svm", harness.TOPK, 400, 100, None),
    ("ridge", harness.UTOPK, 300, 100, None),
    ("ridge", harness.TOPK, 150, 40, 7),      # chunks of 7 rounds: boundaries inside the 40-round warm-up
])
def test_topk_filter_matches_the_per_seed_heap(monkeypatch, family, learner, T, k, chunk_rounds):
    # each seed's episode equals its topk_filter_step loop bit for bit, and a
    # seed rescans its buffer only when the heap replaces its minimum: at the
    # end of warm-up every seed does, and no argmin runs before
    cfg = preset_config(family, T=T, seeds=[1, 2, 3, 4], learner=learner, k=k)
    budget = cfg.resolve_topk_budget()
    if chunk_rounds:
        force_chunk_rows(monkeypatch, cfg, 1, 1, chunk_rounds)
    rescans, replaced = [], []   # the seeds of each call that rescans any; each step's heap replacement
    cache = harness._Filter._cache
    monkeypatch.setattr(harness._Filter, "_cache", lambda self, seeds: (len(seeds) and rescans.append(len(seeds)))
                        or cache(self, seeds))

    heap = topk_filter_step

    def heap_step(state, s, loss, k):   # records whether the full heap replaced its minimum
        full = sorted(state.top_norms) if len(state.top_norms) == k else None
        heap(state, s, loss, k)
        replaced.append(full is not None and full != sorted(state.top_norms))

    monkeypatch.setitem(globals(), "topk_filter_step", heap_step)   # per_seed_episode's step
    assert_matches_per_seed_loop(cfg, run_episodes(cfg))
    replaced = np.array(replaced).reshape(len(cfg.seeds), T)[:, :-1]   # the loop takes no step in round T
    if budget >= T:
        assert rescans == [] and not replaced.any()
    else:
        assert rescans[0] == len(cfg.seeds) and 0 < sum(rescans[1:]) == np.count_nonzero(replaced)
        assert sum(rescans[1:]) < (T - 1 - budget) * len(cfg.seeds)   # not every seed-round after warm-up


def test_filter_cells_of_two_budgets_match_their_heaps():
    # two Top-k cells of budgets 3 and 5 in one filter state, each against
    # topk_filter_step's heap round by round from theta = 0, bit for bit: their
    # warm-ups end on different rounds, and a nan norm of one cell, filtered
    # and never stored, sits beside a replacement of the other's minimum in the
    # same round, both ways round
    nan = math.nan
    norms = np.array([
        [[4, 1], [1, 2]], [[1, 3], [2, 2]], [[2, 2], [3, 1]], [[9, 1], [4, 5]], [[nan, 2], [5, 1]],
        [[1, 8], [1, 3]], [[nan, 5], [7, nan]], [[5, nan], [2, 9]], [[3, 1], [nan, 2]],
        [[8, 20], [nan, nan]], [[nan, 4], [30, 1]], [[10, 2], [nan, 40]],
    ], dtype=float)   # (rounds, cell, seed)
    cfg = preset_config("svm", T=T_REF, seeds=[1, 2], learner=harness.TOPK, k=3)
    cells = [cfg, dataclasses.replace(cfg, k=5)]
    new = drive_filters(cells, norms)
    beside = set()
    for j, cell in enumerate(cells):
        for r in range(2):
            state = LearnerState(theta=np.zeros(2), step_size=0.5)
            for t, n in enumerate(norms[:, j, r]):
                if math.isnan(n):
                    np.testing.assert_array_equal(bits(new[t, j, r]), bits(np.zeros(2)))
                    continue
                state.theta = np.zeros(2)
                full = sorted(state.top_norms) if len(state.top_norms) == cell.k else None
                topk_filter_step(state, SideInfo(np.array([1.0, 0.0]), n), cell.loss, cell.k)
                np.testing.assert_array_equal(bits(new[t, j, r]), bits(state.theta), err_msg=f"cell {j}, seed {r}, round {t}")
                if full is not None and full != sorted(state.top_norms) and np.isnan(norms[t, 1 - j]).any():
                    beside.add(j)
    assert beside == {0, 1}


@pytest.mark.parametrize("family", ["svm", "ridge"])
def test_filter_cells_of_mixed_budgets_share_one_state(monkeypatch, family):
    # at ks 0, 1, 15 and T the Top-k budgets are 0 and 0, 1 and 0 (utopk's 0
    # beside topk's 1), 15 and 11, and T and 45: the warm-ups end on four
    # different rounds and topk's at k = T never, and 7-round chunks end inside
    # them. Every cell of the one pass equals its cell run alone and the
    # per-seed loop, bit for bit
    learners = [harness.OGD, harness.LEARN, harness.TOPK, harness.UTOPK]
    seeds, ks = [4, 5, 6], [0, 1, 15, T_REF]
    config = preset_config(family, T=T_REF, seeds=seeds, learner=harness.OGD, k=0)
    force_chunk_rows(monkeypatch, config, len(ks) * len(learners), len(ks), 7)
    stacked = harness.run_cells(config, learners, ks)
    assert [res.config.resolve_topk_budget() for res in stacked if res.config.learner in (harness.TOPK, harness.UTOPK)] \
        == [0, 0, 1, 0, 15, 11, T_REF, 45]
    for res in stacked:
        assert_cells_equal(res, run_cell(res.config))
        for seed, theta in zip(seeds, res.final_thetas):
            np.testing.assert_array_equal(bits(theta), bits(per_seed_episode(res.config, seed)[1]))


def test_a_wide_pass_packs_its_filter_buffers(monkeypatch):
    # past 1024 slots the buffers are packed, each row at its own budget, and
    # rescanned one row at a time: the k = 40 cells, narrow rows in that wide
    # pass, equal the same cells run alone, whose buffers are padded, and every
    # Top-k cell equals the per-seed loop, bit for bit
    cfg = preset_config("svm", T=1100, seeds=[1, 2], learner=harness.OGD, k=40)
    padded = set()
    cache = harness._Filter._cache
    monkeypatch.setattr(harness._Filter, "_cache", lambda self, rows: padded.add(self.padded) or cache(self, rows))
    stacked = harness.run_cells(cfg, [harness.TOPK, harness.OGD, harness.UTOPK], [40, 1030])
    assert padded == {False}
    for res in stacked:
        assert_cells_equal(res, run_cell(res.config))
        if res.config.learner != harness.OGD:
            for seed, theta in zip(cfg.seeds, res.final_thetas):
                np.testing.assert_array_equal(bits(theta), bits(per_seed_episode(res.config, seed)[1]))
    assert padded == {False, True}


def test_a_sweep_rescans_at_most_once_a_round(monkeypatch):
    # the 8 Top-k cells of a 16-cell sweep share one filter state: the rows whose
    # minimum a round replaced and those whose warm-up ended rescan together, in
    # at most one call a round, some of them rows of several cells
    events = []
    cache, step = harness._Filter._cache, harness._Play.step
    monkeypatch.setattr(harness._Filter, "_cache", lambda self, rows: events.append(len(rows)) or cache(self, rows))
    monkeypatch.setattr(harness._Play, "step", lambda self, *args: events.append(None) or step(self, *args))
    config = preset_config("svm", T=100, seeds=list(range(1, 11)))
    harness.run_cells(config, [harness.OGD, harness.LEARN, harness.TOPK, harness.UTOPK], st.k_grid(config.T))
    calls = [len(round_calls) for round_calls in "".join("s" if e is None else "c" for e in events).split("s")]
    assert len(calls) == config.T and max(calls) == 1   # T - 1 steps; a call comes before its round's step returns
    assert max(e for e in events if e is not None) > len(config.seeds)


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


def test_run_cells_rejects_a_repeated_learner(monkeypatch):
    # before any stream is drawn: the learn blocks of a pass are one strided view,
    # one block at one place in each k's group of cells
    draws = []
    draw = st.EpisodeStream.draw
    monkeypatch.setattr(st.EpisodeStream, "draw", lambda self, n: draws.append(n) or draw(self, n))
    cfg = preset_config("svm", T=T_REF, seeds=[1, 2], learner=harness.OGD, k=6)
    for learners in ([harness.LEARN, harness.OGD, harness.LEARN], (harness.OGD, harness.OGD)):
        with pytest.raises(ValueError, match="run_cells takes each learner once"):
            harness.run_cells(cfg, learners, ks=[0, 6])
    assert draws == []
    harness.run_cells(cfg, [harness.LEARN, harness.OGD], ks=[0, 6])
    assert draws   # the counter sees the draws of a pass


def test_run_cells_rejects_a_repeated_k(monkeypatch):
    # before any stream is drawn, as a repeated learner is: a k given twice
    # would play and write its cells twice
    draws = []
    draw = st.EpisodeStream.draw
    monkeypatch.setattr(st.EpisodeStream, "draw", lambda self, n: draws.append(n) or draw(self, n))
    cfg = preset_config("svm", T=16, seeds=[1, 2], learner=harness.OGD, k=0)
    with pytest.raises(ValueError, match=r"run_cells takes each k once, not \[0, 4, 4\]"):
        harness.run_cells(cfg, [harness.OGD, harness.LEARN], ks=[0, 4, 4])
    assert draws == []
    assert len(harness.run_cells(cfg, [harness.OGD, harness.LEARN], ks=[0, 4])) == 4


@pytest.mark.parametrize("family", ["svm", "ridge"])
@pytest.mark.parametrize("setting", [
    dict(),
    dict(radius=0.05),
    dict(radius=0.01, alpha=harness.THEORETICAL),   # the step sizes come from a first draw under no k
], ids=["unbounded", "radius", "theoretical"])
def test_growth_is_the_same_under_every_k(monkeypatch, family, setting):
    # (G, L) is read off the clean comparators' scales, once per seed: every
    # curve of a seed, under k = 0, floor(T^(2/3)) and T, carries the same
    # bits, and each equals the reference of that k's own emitted stream,
    # taken at the unprojected omega_t* (at radius 0.01 the svm projection
    # binds on the round of the largest G too, which 0.05 does not)
    streams = []

    class CountedStream(st.EpisodeStream):
        def __init__(self, generator, T, ks, seed):
            streams.append((list(ks), seed))
            super().__init__(generator, T, ks, seed)

    monkeypatch.setattr(st, "EpisodeStream", CountedStream)
    seeds, ks = [4, 5, 6], [0, st.k_grid(T_REF)[2], T_REF]
    cfg = preset_config(family, T=T_REF, seeds=seeds, learner=harness.OGD, k=0, **setting)
    results = harness.run_cells(cfg, [harness.OGD, harness.LEARN], ks)
    first = [([], seed) for seed in seeds] if cfg.alpha == harness.THEORETICAL else []
    assert streams == first + [(ks, seed) for seed in seeds]
    monkeypatch.undo()
    for r, seed in enumerate(seeds):
        growth = {bits(res.curves[r].growth).tobytes() for res in results}
        assert len(growth) == 1
        for k in ks:
            want = reference_accounting(dataclasses.replace(cfg, k=k), seed)["growth"]
            assert results[0].curves[r].growth == pytest.approx(want, rel=1e-15, abs=0.0)


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
    rows = 1500   # rounds per chunk: two chunks
    force_chunk_rows(monkeypatch, cfg, len(order), 1, rows)
    first = assert_stack_stops_at_earliest_divergence(monkeypatch, cfg, order)
    assert set(first.values()) == set(order) - {harness.LEARN}
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


def test_a_nan_loss_names_its_learner_k_seed_and_round(monkeypatch):
    # a round's finiteness check compares its isfinite mask with an all-True
    # one at once, and a nan, not only an inf, fails it: the error names the
    # earliest non-finite loss, the first cell and then the first seed on a
    # tie, as the parent's check did, and no step is taken at or after that
    # round; no RuntimeWarning is raised on the way (the tests turn one into
    # an error)
    poison = {3: [(9, np.nan)], 2: [(9, np.nan)], 1: [(7, np.inf)]}   # seed: (round, emitted y under k = 0)

    class PoisonedStream(st.EpisodeStream):
        def __init__(self, generator, T, ks, seed):
            super().__init__(generator, T, ks, seed)
            self.seed = seed

        def draw(self, n):
            t0 = self.t
            X, y_clean, emitted = super().draw(n)
            y, idx = emitted[1]   # k = 0: no round is corrupted; the comparators read y too, without a warning
            y = y.copy()
            for t, value in poison[self.seed]:
                if t0 < t <= t0 + n:
                    y[t - 1 - t0] = value
            emitted[1] = y, idx
            return X, y_clean, emitted

    monkeypatch.setattr(st, "EpisodeStream", PoisonedStream)
    cfg = preset_config("ridge", T=40, seeds=[1, 3, 2], learner=harness.OGD, k=0)
    force_chunk_rows(monkeypatch, cfg, 4, 2, 4)   # 4 rounds per chunk: round 9 opens a chunk
    steps = count_steps(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^learner learn, k 0, seed 1: non-finite loss at round 7 of 40; "):
        harness.run_cells(cfg, [harness.LEARN, harness.OGD], ks=[5, 0])
    assert len(steps) == 6
    poison[1] = []   # then seeds 3 and 2 tie at round 9, a nan each: the first seed of [1, 3, 2] wins
    steps.clear()
    with pytest.raises(RuntimeError, match=r"^learner learn, k 0, seed 3: non-finite loss at round 9 of 40; "):
        harness.run_cells(cfg, [harness.LEARN, harness.OGD], ks=[5, 0])
    assert len(steps) == 8 and np.isfinite(steps[-1]).all()


def assert_matches_per_seed_loop(cfg, traces):
    for seed, trace in zip(cfg.seeds, traces, strict=True):
        f_emitted, theta = per_seed_episode(cfg, seed)
        np.testing.assert_array_equal(bits(trace.f_emitted), bits(f_emitted))
        np.testing.assert_array_equal(bits(trace.theta), bits(theta))


def test_a_round_under_the_guard_gates_unchecked(monkeypatch):
    # svm's losses stay far under the gate's overflow threshold at a = 1e4:
    # every round passes the guard, and the checked eta is never called
    checked, unchecked = record_gates(monkeypatch)
    cfg = preset_config("svm", T=80, seeds=[1, 2, 3], learner=harness.LEARN, k=8)
    traces = run_episodes(cfg)
    assert checked == [] and len(unchecked) == 79
    assert_matches_per_seed_loop(cfg, traces)


def test_a_loss_over_the_gate_threshold_takes_the_checked_gate(monkeypatch):
    # at a = 3e-3 the threshold a (EXP_MAX - 1 - log b) is 2.1: a round with a
    # learn loss above it is gated by the checked eta, once, and the others
    # unchecked; where b exp(f/a) overflows the gate is exactly 0, and every
    # bit is what learn_step gives each seed alone
    checked, unchecked = record_gates(monkeypatch)
    cfg = preset_config("ridge", T=60, seeds=[1, 2, 3], learner=harness.LEARN, k=6,
                        params=LearnParams(a=3e-3, b=10.0))
    traces = run_episodes(cfg)
    f = np.array([trace.f_emitted for trace in traces])[:, :-1]   # the losses of the rounds that step
    failing = (f > cfg.params._gate_operands[2]).any(axis=0)
    assert math.isfinite(f.max())
    assert len(checked) == np.count_nonzero(failing) > 0 and len(unchecked) == np.count_nonzero(~failing) > 0
    np.testing.assert_array_equal(bits(np.array(checked)[:, 0].T), bits(eta(cfg.params, f[:, failing])))
    assert (np.array(checked) == 0.0).any()
    assert_matches_per_seed_loop(cfg, traces)


def test_each_cell_has_its_own_guard_bound(monkeypatch):
    # ridge ogd at alpha = 1 heads for divergence and passes the learn cell's
    # threshold (7064.8 at a = 10) from round 3, while the learn cell stays
    # under it: the ogd cell's bound is the largest finite float, so the
    # learn cell is gated unchecked on every round
    checked, unchecked = record_gates(monkeypatch)
    cfg = preset_config("ridge", T=147, seeds=[1], learner=harness.LEARN, k=10, alpha=1.0)
    learn, ogd = harness._episodes([cfg, dataclasses.replace(cfg, learner=harness.OGD)])
    threshold = cfg.params._gate_operands[2]
    assert learn[0].f_emitted.max() <= threshold < ogd[0].f_emitted[2] and np.isfinite(ogd[0].f_emitted).all()
    assert checked == [] and len(unchecked) == 146
    assert_matches_per_seed_loop(cfg, learn)


def test_a_negative_zero_loss_takes_the_checked_gate(monkeypatch):
    # -0.0 has the sign bit, so it fails the guard's comparison of bits; the
    # checked eta takes it as 0, whose gate is 1/(1 + b)
    value = harness._link_value

    def negative_zero(loss, u, sq, out=None):
        value(loss, u, sq, out=out)[...] = -0.0
        return out

    monkeypatch.setattr(harness, "_link_value", negative_zero)
    checked, unchecked = record_gates(monkeypatch)
    cfg = preset_config("svm", T=6, seeds=[1, 2], learner=harness.LEARN, k=0)
    assert (run_episodes(cfg)[0].f_emitted == 0.0).all()
    assert unchecked == [] and len(checked) == 5
    np.testing.assert_array_equal(bits(checked), bits(np.full((5, 1, 2), 1.0 / (1.0 + cfg.params.b))))


@pytest.mark.parametrize("family", ["svm", "ridge"])
def test_many_chunks_equal_one_chunk(monkeypatch, family):
    # the play's buffers and the comparators' shared scratch are reused from
    # chunk to chunk: 17-round chunks and a last one of one round give what
    # one chunk of all 52 rounds gives, bit for bit, over 10 seeds and every
    # learner
    T, seeds, ks = 52, list(range(1, 11)), [0, 5, 13]
    config = preset_config(family, T=T, seeds=seeds, k=0)
    cells = len(ks) * len(harness.LEARNERS)
    runs = []
    for rows in (17, T):
        force_chunk_rows(monkeypatch, config, cells, len(ks), rows)
        runs.append(harness.run_cells(config, harness.LEARNERS, ks))
    for a, b in zip(*runs, strict=True):
        assert_cells_equal(a, b)


@pytest.mark.parametrize("family, T, R, cells, K", [
    ("svm", 100, 30, 16, 4),        # svm-sweep: 4 learners under 4 k's
    ("ridge", 10 ** 4, 4, 1, 1),    # ridge-cell
    ("svm", 2000, 1, 1, 1),         # experts-svm
    ("ridge", 200, 1, 3, 3),        # verify's theorem pass: learn under 3 k's
    ("ridge", 10 ** 5, 30, 16, 4),  # the full-scale sweeps
    ("svm", 10 ** 4, 30, 16, 4),
], ids=["svm-sweep", "ridge-cell", "experts-svm", "verify-theorem", "full-ridge", "full-svm"])
def test_one_budget_sizes_every_chunk(monkeypatch, family, T, R, cells, K):
    # a chunk's features and cell losses, the comparators' (rows, R, d) scratch
    # and two arrays of comparator scales fill CHUNK_BYTES as far as whole rounds do,
    # unless the chunk holds all T rounds; a round larger than the budget
    # still makes a chunk
    config = preset_config(family, T=T, seeds=list(range(1, R + 1)))
    per_round, rows = chunk_round_bytes(config, cells, K), harness._chunk_rows(config, cells, K)
    assert 1 <= rows <= T and rows * per_round <= harness.CHUNK_BYTES
    assert rows == T or harness.CHUNK_BYTES < (rows + 1) * per_round
    monkeypatch.setattr(harness, "CHUNK_BYTES", per_round - 1)
    assert harness._chunk_rows(config, cells, K) == 1


@pytest.mark.parametrize("family, radius", [("svm", math.inf), ("ridge", math.inf), ("ridge", 0.05)])
def test_stacked_chunked_accounting_gives_each_seed_its_own_bits(monkeypatch, family, radius):
    # the accounting takes every seed and k of a pass as arrays: seed 2 beside
    # seeds 1 and 3, under three k's at once, in chunks of 1, 5, 17 and T
    # rounds, gets the bits of seed 2 alone in one chunk: V_T, delta_S per k, the radius, (G, L),
    # one pair per seed, f_t(s_t, theta_t*) on the clean stream and on each
    # k's emitted one
    ks = [0, 15, T_REF]
    add = harness._Comparators.add

    def accounting(seeds, rows):
        cfg = preset_config(family, T=T_REF, seeds=seeds, learner=harness.OGD, k=0, radius=radius)
        force_chunk_rows(monkeypatch, cfg, len(ks), len(ks), rows)
        f_star = []
        monkeypatch.setattr(harness._Comparators, "add", lambda *args: f_star.append(add(*args)) or f_star[-1])
        _, comparators, _, _ = harness._run(cfg, [harness.OGD], ks, keep=True)
        assert len(f_star) == -(-T_REF // rows)
        assert comparators.growth.shape == (len(seeds), 2) and comparators.delta_s.shape == (len(ks), len(seeds))
        r = seeds.index(2)
        traces = [comparators.trace(j, r, None, None) for j in range(len(ks))]
        return np.concatenate(f_star, axis=1)[r], [
            (t.v_t, t.delta_s, t.comparator_radius, *t.growth, *t.f_at_comparator) for t in traces]

    f_star, figures = accounting([2], T_REF)
    assert any(fig[1] > 0.0 for fig in figures)   # some k moves a comparator
    for rows in (1, 5, 17, T_REF):
        got_f_star, got = accounting([1, 2, 3], rows)
        np.testing.assert_array_equal(bits(got_f_star), bits(f_star))
        np.testing.assert_array_equal(bits(got), bits(figures))


@pytest.mark.parametrize("family", ["svm", "ridge"])
def test_a_theoretical_run_accounts_each_rounds_path_figures_once(monkeypatch, family):
    # the first draw of the clean rounds accounts V_T, the radius and (G, L),
    # and the pass's own draw of the same rounds only delta_S and f*: (G, L)
    # are formed on R T rounds, not twice that, over 4 chunks and 3 k's
    T, seeds, ks = T_REF, [4, 5, 6], [0, 15, T_REF]
    config = preset_config(family, T=T, seeds=seeds, k=0, radius=5.0, alpha=harness.THEORETICAL)
    force_chunk_rows(monkeypatch, config, len(ks), len(ks), 17)
    rows, growth = [], harness.growth_constants
    monkeypatch.setattr(harness, "growth_constants", lambda loss, nx2, omega: rows.append(nx2.size) or
                        growth(loss, nx2, omega))
    results = harness.run_cells(config, [harness.LEARN], ks)
    assert sum(rows) == len(seeds) * T and len(rows) == 4
    fixed = harness.run_cells(dataclasses.replace(config, alpha=0.01), [harness.LEARN], ks)
    for res, other in zip(results, fixed, strict=True):   # the figures do not depend on the step size
        assert [(c.v_t, c.comparator_radius, c.growth, c.delta_s) for c in res.curves] == \
            [(c.v_t, c.comparator_radius, c.growth, c.delta_s) for c in other.curves]


def test_the_path_accounting_copies_no_chunk_of_comparators():
    # V_T's steps overwrite the comparator scratch in place: accounting one
    # ridge seed's 1000-round chunk (d = 100) allocates less than one (rows, d)
    # array beyond the scratch, which numpy would make by copying an operand
    # that overlaps its output
    rows = 1000
    config = preset_config("ridge", T=rows, seeds=[1], k=0)
    comparators = harness._Comparators(config, [0], rows)
    chunk = next(harness._chunks(config, [0], rows))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        comparators.add(*chunk)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < rows * config.generator.dim * 8


def test_back_to_back_calls_share_no_buffer():
    # each pass allocates its own buffers: a second call neither overwrites nor
    # shares what the first returned
    config = preset_config("svm", T=T_REF, seeds=[1, 2, 3], k=6)
    learners = [harness.OGD, harness.LEARN, harness.TOPK]
    first = harness.run_cells(config, learners)
    kept = [[theta.copy() for theta in res.final_thetas] for res in first]
    second = harness.run_cells(config, learners)
    for a, b, thetas in zip(first, second, kept, strict=True):
        assert_cells_equal(a, b)
        for ta, tb, tk in zip(a.final_thetas, b.final_thetas, thetas, strict=True):
            assert not np.shares_memory(ta, tb)
            np.testing.assert_array_equal(bits(ta), bits(tk))
        assert not np.shares_memory(a.mean, b.mean) and not np.shares_memory(a.stderr, b.stderr)
