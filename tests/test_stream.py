from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import episode_stream
from robust_oco import harness
from robust_oco import stream as st
from robust_oco.harness import PRESETS, preset_config
from robust_oco.losses import SideInfo

RIDGE_GEN, SVM_GEN = PRESETS["ridge"]["generator"], PRESETS["svm"]["generator"]


# Per-round references for the block functions: one round's draws, consumed
# from the same substreams in the same order.

def gen_clean_round(gen, theta_star, rngs):
    """One clean round, drawing what gen_clean_block draws for one row; sign(0) = +1."""
    x = gen.feature_std * rngs.features.standard_normal(gen.dim)
    dot = float(theta_star @ x)
    if gen.kind == st.RIDGE_MODEL:
        return SideInfo(x=x, y=dot + gen.noise_std * float(rngs.noise.standard_normal()))
    y = 1.0 if dot >= 0.0 else -1.0
    u = float(rngs.mislabel.uniform())  # drawn every round to keep streams aligned
    if abs(dot) <= gen.margin_band and u < gen.mislabel_prob:
        y = -y
    return SideInfo(x=x, y=y)


def corrupt(kind, clean, rng):
    """One round's corruption: ridge draws a Uniform[0,1] response, svm flips the label."""
    if kind == st.RIDGE_MODEL:
        return SideInfo(x=clean.x, y=float(rng.uniform()))
    return SideInfo(x=clean.x, y=-clean.y)


def test_ridge_noiseless_response():
    gen = st.CleanGenerator(kind="ridge", dim=3, feature_std=1.0, noise_std=0.0)
    theta_star = np.array([1.0, 0.0, 0.0])
    rngs = st.stream_rngs(5)
    for _ in range(19):
        s = gen_clean_round(gen, theta_star, rngs)
        assert s.y == pytest.approx(s.x[0], rel=1e-15)
    X, y = st.gen_clean_block(gen, theta_star, st.stream_rngs(5), 19)
    np.testing.assert_allclose(y, X[:, 0], rtol=1e-15)


def test_svm_no_flip_outside_band():
    gen = SVM_GEN
    rngs = st.stream_rngs(7)
    theta_star = st.resolve_theta_star(gen, rngs)
    X, y = st.gen_clean_block(gen, theta_star, rngs, 5000)
    dot = X @ theta_star
    outside = np.abs(dot) > gen.margin_band
    assert np.array_equal(y[outside], np.where(dot[outside] >= 0, 1.0, -1.0))
    assert set(np.unique(y)) <= {-1.0, 1.0}


def test_svm_mislabels_only_inside_band():
    gen = replace(SVM_GEN, margin_band=5.0, mislabel_prob=0.5)  # wide band to get flips
    rngs = st.stream_rngs(3)
    theta_star = st.resolve_theta_star(gen, rngs)
    X, y = st.gen_clean_block(gen, theta_star, rngs, 20000)
    dot = X @ theta_star
    inside = np.abs(dot) <= 5.0
    flipped = y != np.where(dot >= 0, 1.0, -1.0)
    assert np.all(inside[flipped])
    rate = flipped[inside].mean()
    assert abs(rate - 0.5) < 0.05


def test_ridge_feature_moments():
    gen = RIDGE_GEN
    assert gen.dim == 100
    rngs = st.stream_rngs(11)
    theta_star = st.resolve_theta_star(gen, rngs)
    X, _ = st.gen_clean_block(gen, theta_star, rngs, 1000)  # 1e5 feature entries
    assert abs(X.mean()) < 0.02
    assert abs(X.var() - 1.0) < 0.05
    assert abs(np.linalg.norm(theta_star) - 1.0) < 1e-12


def test_theta_star_ranges():
    rngs = st.stream_rngs(2)
    ridge_star = st.resolve_theta_star(RIDGE_GEN, rngs)
    assert np.linalg.norm(ridge_star) == pytest.approx(1.0)
    svm_star = st.resolve_theta_star(SVM_GEN, rngs)
    assert np.all((svm_star >= 1.0) & (svm_star <= 11.0))


def test_per_round_matches_block():
    for gen in (RIDGE_GEN, SVM_GEN):
        r1, r2 = st.stream_rngs(99), st.stream_rngs(99)
        theta1 = st.resolve_theta_star(gen, r1)
        theta2 = st.resolve_theta_star(gen, r2)
        np.testing.assert_array_equal(theta1, theta2)
        X, y = st.gen_clean_block(gen, theta1, r1, 50)
        for t in range(50):
            s = gen_clean_round(gen, theta2, r2)
            np.testing.assert_array_equal(s.x, X[t])
            assert s.y == y[t]   # the block takes one dot product per round too


def test_corrupt_examples():
    idx = np.array([0, 2])
    y = np.array([1.0, 1.0, -1.0])
    rng = np.random.default_rng(0)
    flipped = st.apply_corruption_block(st.SVM_MODEL, idx, y, rng)
    np.testing.assert_array_equal(flipped, [-1.0, 1.0, 1.0])
    np.testing.assert_array_equal(y, [1.0, 1.0, -1.0])  # input untouched
    np.testing.assert_array_equal(st.apply_corruption_block(st.SVM_MODEL, idx, flipped, rng), y)  # involution
    np.testing.assert_array_equal(st.outlier_mask(idx, 3), [True, False, True])


def test_uniform_response_moments():
    n = 100_000
    rng = np.random.default_rng(1)
    ys = st.apply_corruption_block(st.RIDGE_MODEL, np.arange(n), np.full(n, 5.0), rng)
    assert abs(np.mean(ys) - 0.5) < 0.01
    assert np.all((ys >= 0.0) & (ys <= 1.0))


def test_sample_outlier_rounds():
    rng = np.random.default_rng(0)
    none = st.sample_outlier_rounds(10, 0, rng)
    assert none.size == 0 and not st.outlier_mask(none, 10).any()
    np.testing.assert_array_equal(st.sample_outlier_rounds(10, 10, rng), np.arange(10))
    idx = st.sample_outlier_rounds(1000, 50, rng)
    assert idx.size == 50 and np.all(np.diff(idx) > 0) and idx[0] >= 0 and idx[-1] < 1000
    with pytest.raises(ValueError):
        st.sample_outlier_rounds(5, 6, rng)


def test_outlier_marginal_frequency():
    # each index included with empirical frequency k/T +- 3 binomial sigmas
    T, k, R = 20, 5, 10_000
    rng = np.random.default_rng(123)
    counts = np.zeros(T)
    for _ in range(R):
        counts[st.sample_outlier_rounds(T, k, rng)] += 1
    p = k / T
    sigma = np.sqrt(p * (1 - p) / R)
    assert np.all(np.abs(counts / R - p) <= 3.5 * sigma)


def test_block_corruption_matches_per_round():
    T, k = 40, 7
    rngs1, rngs2 = st.stream_rngs(17), st.stream_rngs(17)
    idx = st.sample_outlier_rounds(T, k, rngs1.outliers)
    st.sample_outlier_rounds(T, k, rngs2.outliers)  # consume identically
    y_clean = np.arange(T, dtype=float)
    for kind in (st.RIDGE_MODEL, st.SVM_MODEL):
        y_block = st.apply_corruption_block(kind, idx, y_clean, rngs1.corruption)
        for t in range(T):
            s = SideInfo(np.array([1.0]), y_clean[t])
            if t in idx:
                s = corrupt(kind, s, rngs2.corruption)
            assert s.y == y_block[t]


@pytest.mark.parametrize("gen", [RIDGE_GEN, SVM_GEN], ids=["ridge_generator", "svm_generator"])
@pytest.mark.parametrize("k", [0, 9, 60])
def test_chunked_draws_equal_block_draw(gen, k):
    # uneven chunks, including single rounds and chunks with no corrupted round;
    # a stream of several k's corrupts its one clean draw as each k's own stream does
    T, sizes = 60, (1, 7, 2, 19, 1, 30)
    ks = [k, 5, k]
    theta_star, X, y_clean, y_emitted, mask = episode_stream(gen, T, k, 23)
    *_, y_emitted5, mask5 = episode_stream(gen, T, 5, 23)
    stream = st.EpisodeStream(gen, T, ks, 23)
    # theta* belongs to the seed's stream, drawn from its theta_star substream
    np.testing.assert_array_equal(stream.theta_star, theta_star)
    np.testing.assert_array_equal(theta_star, st.resolve_theta_star(gen, st.stream_rngs(23)))
    t0 = 0
    for n in sizes:
        Xc, yc, emitted = stream.draw(n)
        np.testing.assert_array_equal(Xc, X[t0:t0 + n])
        np.testing.assert_array_equal(yc, y_clean[t0:t0 + n])
        assert len(emitted) == len(ks)
        for (ye, idx), (y_ref, mask_ref) in zip(emitted, [(y_emitted, mask), (y_emitted5, mask5)] * 2):
            np.testing.assert_array_equal(ye, y_ref[t0:t0 + n])
            np.testing.assert_array_equal(idx, np.flatnonzero(mask_ref[t0:t0 + n]))
        t0 += n
    assert t0 == T


# Eager seeding, the reference of the lazy substreams: six generators from
# SeedSequence(seed).spawn(6), a restart of the outliers and corruption
# substreams for every k (k = 0 included), and a corruption draw in every
# chunk, an empty one included.

SUBSTREAM_NAMES = ("theta_star", "features", "noise", "mislabel", "outliers", "corruption")


def eager_rngs(seed):
    children = np.random.SeedSequence(seed).spawn(6)
    return SimpleNamespace(**{name: np.random.default_rng(c) for name, c in zip(SUBSTREAM_NAMES, children)})


def restart(rng):
    return np.random.default_rng(rng.bit_generator.seed_seq)


def eager_stream(gen, T, ks, seed, sizes):
    """theta*, each k's outlier rounds and, per chunk of sizes, (X, y_clean,
    [(y_emitted, corrupted rows) for each k]), as the eager seeding drew them."""
    rngs = eager_rngs(seed)
    theta_star = st.resolve_theta_star(gen, rngs)
    outliers = [np.sort(restart(rngs.outliers).choice(T, size=k, replace=False)) for k in ks]
    corruption = [restart(rngs.corruption) for _ in ks]
    chunks, t = [], 0
    for n in sizes:
        X, y_clean = st.gen_clean_block(gen, theta_star, rngs, n)
        emitted = []
        for rounds, rng in zip(outliers, corruption):
            idx = rounds[(rounds >= t) & (rounds < t + n)] - t
            y = y_clean.copy()
            y[idx] = rng.uniform(size=idx.size) if gen.kind == st.RIDGE_MODEL else -y[idx]
            emitted.append((y, idx))
        chunks.append((X, y_clean, emitted))
        t += n
    return theta_star, outliers, chunks


@pytest.mark.parametrize("gen", [RIDGE_GEN, SVM_GEN], ids=["ridge_generator", "svm_generator"])
@pytest.mark.parametrize("ks", [[0, 9, 60], [5, 0], [60]])
@pytest.mark.parametrize("seed", [1, 23, 500])
def test_lazy_seeding_draws_the_eager_streams_bits(gen, ks, seed):
    T, sizes = 60, (1, 7, 2, 19, 1, 30)   # uneven chunks, some with no corrupted round
    theta_star, outliers, chunks = eager_stream(gen, T, ks, seed, sizes)
    stream = st.EpisodeStream(gen, T, ks, seed)
    np.testing.assert_array_equal(stream.theta_star, theta_star)
    for rounds, ref in zip(stream.outliers, outliers, strict=True):
        np.testing.assert_array_equal(rounds, ref)
        assert rounds.dtype == ref.dtype
    for n, (X_ref, y_ref, emitted_ref) in zip(sizes, chunks):
        X, y_clean, emitted = stream.draw(n)
        np.testing.assert_array_equal(X, X_ref)
        np.testing.assert_array_equal(y_clean, y_ref)
        for (y, idx), (y_e, idx_e) in zip(emitted, emitted_ref, strict=True):
            np.testing.assert_array_equal(y, y_e)
            np.testing.assert_array_equal(idx, idx_e)


@pytest.mark.parametrize("seed", [0, 7, 2024, 10 ** 12])
def test_each_substream_draws_its_eager_childs_numbers(seed):
    rngs, eager = st.stream_rngs(seed), eager_rngs(seed)
    assert st.SUBSTREAMS == SUBSTREAM_NAMES
    for name in SUBSTREAM_NAMES:
        rng = getattr(rngs, name)
        assert getattr(rngs, name) is rng   # built once, then read on
        np.testing.assert_array_equal(rng.random(5), getattr(eager, name).random(5))
        np.testing.assert_array_equal(rng.random(3), getattr(eager, name).random(3))
        np.testing.assert_array_equal(rngs.fresh(name).random(8), restart(getattr(eager, name)).random(8))
    with pytest.raises(AttributeError):
        rngs.nonexistent


def count_built(monkeypatch) -> Counter:
    """Names of the substreams whose generators stream builds from now on."""
    built, default_rng = Counter(), np.random.default_rng
    def counted(seq):
        built[SUBSTREAM_NAMES[seq.spawn_key[-1]]] += 1
        return default_rng(seq)
    monkeypatch.setattr(st.np.random, "default_rng", counted)
    return built


@pytest.mark.parametrize("gen, ks, expected", [
    (SVM_GEN, [0, 10, 21, 25], dict(theta_star=1, features=1, mislabel=1, outliers=1)),
    (RIDGE_GEN, [0, 14], dict(theta_star=1, features=1, noise=1, outliers=1, corruption=1)),
    (RIDGE_GEN, [3, 0, 3], dict(theta_star=1, features=1, noise=1, outliers=1, corruption=2)),
    (SVM_GEN, [], dict(theta_star=1, features=1, mislabel=1)),
], ids=["svm-sweep-ks", "ridge-k0-k14", "ridge-k-twice", "svm-no-k"])
def test_a_stream_builds_only_the_generators_it_draws_from(monkeypatch, gen, ks, expected):
    # a k of 0 samples no outlier rounds and svm's sign flips draw nothing; every
    # k > 0 rewinds the one outliers generator, and ridge's corruption generators,
    # read on across chunks, are one per k > 0
    built = count_built(monkeypatch)
    stream = st.EpisodeStream(gen, 100, ks, 4)
    for n in (30, 1, 69):
        stream.draw(n)
    assert built == Counter(expected)


@pytest.mark.parametrize("family", ["ridge", "svm"])
def test_the_theoretical_first_draw_builds_no_outliers_or_corruption_generator(monkeypatch, family):
    config = preset_config(family, T=80, seeds=[1, 2, 3], k=10, radius=3.0, alpha=harness.THEORETICAL)
    built = count_built(monkeypatch)
    harness._step_sizes(config, harness._Comparators(config, [config.k], 30), 30)
    clean = "noise" if family == "ridge" else "mislabel"
    assert built == Counter(theta_star=3, features=3, **{clean: 3})


def test_master_seed_determinism_and_k_invariance():
    gen = replace(RIDGE_GEN, dim=5)
    outs = []
    for _ in range(2):
        rngs = st.stream_rngs(321)
        theta_star = st.resolve_theta_star(gen, rngs)
        X, y = st.gen_clean_block(gen, theta_star, rngs, 30)
        rounds = st.sample_outlier_rounds(30, 6, rngs.outliers)
        outs.append((theta_star, X, y, rounds))
    np.testing.assert_array_equal(outs[0][1], outs[1][1])
    np.testing.assert_array_equal(outs[0][2], outs[1][2])
    np.testing.assert_array_equal(outs[0][3], outs[1][3])

    # changing k must not perturb the clean stream
    rngs_a, rngs_b = st.stream_rngs(55), st.stream_rngs(55)
    theta_a = st.resolve_theta_star(gen, rngs_a)
    theta_b = st.resolve_theta_star(gen, rngs_b)
    st.sample_outlier_rounds(30, 0, rngs_a.outliers)
    st.sample_outlier_rounds(30, 15, rngs_b.outliers)
    Xa, ya = st.gen_clean_block(gen, theta_a, rngs_a, 30)
    Xb, yb = st.gen_clean_block(gen, theta_b, rngs_b, 30)
    np.testing.assert_array_equal(Xa, Xb)
    np.testing.assert_array_equal(ya, yb)


def test_k_grid():
    assert st.k_grid(10 ** 5) == [0, 316, 2154, 25000]
    assert st.k_grid(10 ** 4) == [0, 100, 464, 2500]
    assert st.k_grid(200) == [0, 14, 34, 50]
    # at small T some values coincide: each is kept once, in the sweep's order
    assert st.k_grid(16) == [0, 4, 6]
    assert st.k_grid(40) == [0, 6, 11, 10]
    assert st.k_grid(1) == [0, 1]
    assert all(len(set(st.k_grid(T))) == len(st.k_grid(T)) for T in range(1, 300))
    assert st.k_grid(10 ** 6)[2] == 10 ** 4  # exact at perfect powers
