"""Acceptance gate: every promised behavior of the artifact, one test per
check, each printing a PASS/FAIL line (run with -s to see them inline).

Checks 3(a), 3(b) and 4(b)/4(c) encode golden thresholds for the rescaled
ridge experiment and the SVM ordering that the pinned configuration itself
contradicts; those asserts carry the measured values and the dynamical
explanation. The remaining checks are green. Budget-relevant wall times are
asserted where a check states one.
"""

import math
import subprocess
import sys
import time

import numpy as np

import robust_oco as ro
from conftest import capture_pools, cli_env
from robust_oco import oracle
from robust_oco import stream as st

SEEDS = list(range(1, 11))
T = 10_000
K23 = st.k_grid(T)[2]   # 464
K4 = st.k_grid(T)[3]    # 2500

_cells = {}
_cell_time = {"ridge": 0.0, "svm": 0.0}


def cell(family, k, learner):
    """The cached cell; one shared pass fills all four sweep learners of (family, k)."""
    if (family, k, learner) not in _cells:
        t0 = time.perf_counter()
        cfg = ro.preset_config(family, T=T, seeds=SEEDS, k=k)
        for res in ro.run_cells(cfg, ("ogd", "learn", "topk", "utopk")):
            _cells[family, k, res.config.learner] = res
        _cell_time[family] += time.perf_counter() - t0
    return _cells[family, k, learner]


def final(family, k, learner):
    return float(cell(family, k, learner).mean[-1])


def is_flat(mean_series):
    """Deceleration gate frozen from the calibration run: regret gained over
    the last 20% of rounds is at most half the gain over the first 20%."""
    n = len(mean_series)
    head = float(mean_series[n // 5 - 1])
    tail = float(mean_series[-1] - mean_series[4 * n // 5 - 1])
    return tail <= 0.5 * head, head, tail


def angle_to_truth(family, k, learner):
    """Mean angle (degrees) between the final action and the generating theta*."""
    res = cell(family, k, learner)
    cfg = res.config
    angles = []
    for seed, theta in zip(cfg.seeds, res.final_thetas):
        theta_star = st.resolve_theta_star(cfg.generator, st.stream_rngs(seed))
        c = float(theta @ theta_star) / (
            np.linalg.norm(theta) * np.linalg.norm(theta_star) + 1e-300)
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, c)))))
    return float(np.mean(angles))


def report(num, label, ok, detail=""):
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# --- 1: numerical verification suite -----------------------------------------

def test_1_oracle_suite_green():
    t0 = time.perf_counter()
    grouped = oracle.group_reports(oracle.default_suite(samples=100_000, seed=2024))
    elapsed = time.perf_counter() - t0
    expected = {"invexity", "exp_trumps_poly", "eta_grad_bound", "eta_f_bound",
                "eta_dist_bounds", "grad_fd", "euclidean_assumptions"}
    assert {r.name for r in grouped} == expected
    ok = True
    for rep in grouped:
        print("    " + rep.line())
        ok &= rep.violations == 0 and rep.samples >= 100_000
    ok &= elapsed <= 60.0
    assert report(1, "oracle suite, >=1e5 samples/check, <=60s", ok,
                  f"elapsed {elapsed:.1f}s"), "verification suite not green in budget"


# --- 2: theorem bound ---------------------------------------------------------

def test_2_theorem_bound_holds():
    ok = True
    details = []
    for k, (chk, curve, _) in zip((0, 14, 34), ro.run_theorem_check(1), strict=True):
        ok &= chk.holds and curve.n_outliers == k
        details.append(f"k={k}: {chk.measured:.4g} <= {chk.bound:.4g}")
    assert report(2, "T=200 ridge ball run within regret bound", ok, "; ".join(details))


# --- 3: ridge reproduction at T=1e4 -------------------------------------------

def test_3a_ridge_curves_flatten_and_gap():
    flats = {m: is_flat(cell("ridge", 0, m).mean) for m in ("ogd", "learn", "topk", "utopk")}
    learn_final, ogd_final = final("ridge", 0, "learn"), final("ridge", 0, "ogd")
    all_flat = all(f[0] for f in flats.values())
    gap = learn_final > ogd_final
    detail = (f"tail/head gains: " +
              ", ".join(f"{m}={f[2]:.4g}/{f[1]:.4g}" for m, f in flats.items()) +
              f"; learn final {learn_final:.4g} vs ogd final {ogd_final:.4g}")
    ok = report("3a", "ridge k=0: all curves flatten, cautious learner above ogd", all_flat and gap, detail)
    assert ok, (
        "vanilla OGD is second-moment divergent at this scale: the per-round factor "
        "on E||theta-theta*||^2 is 1-4a+4a^2(d+2) = 1.0008 > 1 for alpha=0.01, d=100 "
        "(stability needs T > (d+2)^2 = 10404), so its curve accelerates instead of "
        f"flattening and ends at {ogd_final:.4g} while the gated learner ends at {learn_final:.4g}")


def test_3b_ridge_robustness_ratios():
    learn_ratio = final("ridge", K23, "learn") / final("ridge", 0, "learn")
    ogd_ratio = final("ridge", K23, "ogd") / final("ridge", 0, "ogd")
    detail = f"learn x{learn_ratio:.3f} (<=2 required), ogd x{ogd_ratio:.3f} (>=10 required)"
    ok = report("3b", "ridge k=T^(2/3): learn <=2x own k=0, ogd >=10x",
                learn_ratio <= 2.0 and ogd_ratio >= 10.0, detail)
    assert ok, (
        f"measured learn ratio {learn_ratio:.3f}, ogd ratio {ogd_ratio:.3f}: the ogd "
        "baseline is already divergent at k=0 (final ~2.9e6), so corruption only "
        "multiplies it ~3.8x, never the 10x the golden threshold expects of a "
        "converged-then-disrupted baseline")


def test_3c_ridge_ordering():
    finals = {m: final("ridge", K23, m) for m in ("learn", "topk", "utopk", "ogd")}
    ok = finals["learn"] < finals["topk"] < finals["utopk"] <= finals["ogd"]
    assert report("3c", "ridge k=T^(2/3) ordering learn < topk < utopk <= ogd", ok,
                  ", ".join(f"{m}={v:.4g}" for m, v in finals.items()))


# --- 4: svm reproduction at T=1e4 ----------------------------------------------

def test_4a_svm_curves_flatten_and_gap():
    flats = {m: is_flat(cell("svm", 0, m).mean) for m in ("ogd", "learn", "topk", "utopk")}
    learn_final, ogd_final = final("svm", 0, "learn"), final("svm", 0, "ogd")
    ok = all(f[0] for f in flats.values()) and learn_final > ogd_final
    assert report("4a", "svm k=0: all curves flatten, cautious learner above ogd", ok,
                  f"learn final {learn_final:.4g} vs ogd final {ogd_final:.4g}")


def test_4b_svm_robustness_ratios():
    learn_ratio = final("svm", K23, "learn") / final("svm", 0, "learn")
    ogd_ratio = final("svm", K23, "ogd") / final("svm", 0, "ogd")
    detail = f"learn x{learn_ratio:.3f} (<=2 required), ogd x{ogd_ratio:.3f} (>=10 required)"
    ok = report("4b", "svm k=T^(2/3): learn <=2x own k=0, ogd >=10x",
                learn_ratio <= 2.0 and ogd_ratio >= 10.0, detail)
    assert ok, (
        f"measured learn ratio {learn_ratio:.3f} (a 4% miss of the 2x golden value, "
        f"stable across seeds at stderr ~0.01) and ogd ratio {ogd_ratio:.3f}: with "
        "a=1e4 the gate is ~1/11 on clean and corrupted rounds alike, so damping is "
        "by caution rather than selective redescent, and the baselines degrade ~4x "
        "rather than the 10x the golden threshold expects")


def test_4c_svm_ordering():
    finals = {m: final("svm", K23, m) for m in ("learn", "topk", "utopk", "ogd")}
    ok = finals["learn"] < finals["topk"] < finals["utopk"] <= finals["ogd"]
    detail = ", ".join(f"{m}={v:.4g}" for m, v in finals.items())
    ok = report("4c", "svm k=T^(2/3) ordering learn < topk < utopk <= ogd", ok, detail)
    assert ok, (
        f"measured {detail}: hinge gradient norms are ~||x_t|| on corrupted and "
        "active clean rounds alike, so norm filtering cannot separate them and the "
        "k filtered warm-up rounds cost the filters more than the filtering saves; "
        "only the gated learner's position survives the stated chain")


def test_4_svm_decision_boundary_angle():
    a23 = angle_to_truth("svm", K23, "learn")
    a0 = angle_to_truth("svm", 0, "learn")
    ok = a23 <= a0 + 5.0
    assert report("4", "svm decision boundary: corrupted-run angle within 5 deg of clean",
                  ok, f"k={K23} angle {a23:.2f} deg vs k=0 angle {a0:.2f} deg")


def test_3_4_runtime_budget():
    # cells are cached; the budget covers each family's full build
    ok = _cell_time["ridge"] <= 300.0 and _cell_time["svm"] <= 300.0
    assert report("3/4", "reproduction runtime <=5min per family", ok,
                  f"ridge {_cell_time['ridge']:.0f}s, svm {_cell_time['svm']:.0f}s")


# --- 5: constant-fraction corruption hurts everyone -----------------------------

def test_5_quarter_corruption_regime():
    ok = True
    details = []
    for family in ("ridge", "svm"):
        for m in ("ogd", "learn", "topk", "utopk"):
            series = cell(family, K4, m).mean
            slope = (series[-1] - series[4 * len(series) // 5 - 1]) / (len(series) / 5)
            ok &= slope > 0.0
            details.append(f"{family}/{m}={slope:.3g}")
    assert report(5, "k=T/4: every curve still climbing over the final 20%", ok,
                  "final-window slopes " + "; ".join(details))


# --- 6: expert aggregation sanity ----------------------------------------------

def test_6_expert_framework(monkeypatch):
    t0 = time.perf_counter()
    T6 = 2000
    n_max = T6 * math.ceil(math.log2(max(math.sqrt(T6), 2.0)))   # N <= T ceil(log2 A_max), default A_max
    k6 = math.isqrt(T6)
    ratios = []
    weights_ok, n_ok = True, True
    pools = capture_pools(monkeypatch)
    for seed in (1, 2, 3):
        cfg_e = ro.preset_config("svm", T=T6, seeds=[seed], learner="experts", k=k6)
        f_experts = ro.clean_dynamic_regret(ro.run_episode(cfg_e, seed)).final
        pool = pools[-1]
        cfg_l = ro.preset_config("svm", T=T6, seeds=[seed], learner="learn", k=k6)
        f_learn = ro.clean_dynamic_regret(ro.run_episode(cfg_l, seed)).final
        ratios.append(f_experts / f_learn)
        weights_ok &= bool(np.all(np.isfinite(pool.log_weights)))
        n_ok &= pool.grid.n <= n_max
    elapsed = time.perf_counter() - t0
    ok = max(ratios) <= 3.0 and weights_ok and n_ok and elapsed <= 180.0
    assert report(6, "expert pool within 3x of single learner, grid bound, finite weights",
                  ok, f"ratios {[f'{r:.2f}' for r in ratios]}, N={pool.grid.n} <= "
                      f"{n_max}, {elapsed:.0f}s")


# --- 7: determinism end to end ---------------------------------------------------

def test_7_cli_determinism(tmp_path):
    env = cli_env()
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "robust_oco.cli", "run", "--preset", "svm",
             "--T", "400", "--seeds", "1 2", "--learner", "learn", "--k", "20",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        blobs.append((out / "regret_learn_k20.csv").read_bytes())
    assert report(7, "identical config+seed gives byte-identical CSV", blobs[0] == blobs[1])
