import numpy as np
import pytest

from robust_oco import stream as st
from robust_oco.losses import SideInfo


# Per-round references for the block functions: one round's draws, consumed
# from the same substreams in the same order.

def gen_clean_round(gen, rngs):
    """One clean round, drawing what gen_clean_block draws for one row; sign(0) = +1."""
    x = gen.feature_std * rngs.features.standard_normal(gen.dim)
    dot = float(gen.theta_star @ x)
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
    gen = st.CleanGenerator(kind="ridge", dim=3, feature_std=1.0, noise_std=0.0,
                            theta_star=np.array([1.0, 0.0, 0.0]))
    rngs = st.stream_rngs(5)
    for _ in range(19):
        s = gen_clean_round(gen, rngs)
        assert s.y == pytest.approx(s.x[0], rel=1e-15)


def test_svm_no_flip_outside_band():
    gen = st.svm_generator()
    rngs = st.stream_rngs(7)
    gen = st.resolve_theta_star(gen, rngs)
    X, y = st.gen_clean_block(gen, rngs, 5000)
    dot = X @ gen.theta_star
    outside = np.abs(dot) > gen.margin_band
    assert np.array_equal(y[outside], np.where(dot[outside] >= 0, 1.0, -1.0))
    assert set(np.unique(y)) <= {-1.0, 1.0}


def test_svm_mislabels_only_inside_band():
    gen = st.svm_generator(margin_band=5.0, mislabel_prob=0.5)  # wide band to get flips
    rngs = st.stream_rngs(3)
    gen = st.resolve_theta_star(gen, rngs)
    X, y = st.gen_clean_block(gen, rngs, 20000)
    dot = X @ gen.theta_star
    inside = np.abs(dot) <= 5.0
    flipped = y != np.where(dot >= 0, 1.0, -1.0)
    assert np.all(inside[flipped])
    rate = flipped[inside].mean()
    assert abs(rate - 0.5) < 0.05


def test_ridge_feature_moments():
    gen = st.ridge_generator(dim=100)
    rngs = st.stream_rngs(11)
    gen = st.resolve_theta_star(gen, rngs)
    X, _ = st.gen_clean_block(gen, rngs, 1000)  # 1e5 feature entries
    assert abs(X.mean()) < 0.02
    assert abs(X.var() - 1.0) < 0.05
    assert abs(np.linalg.norm(gen.theta_star) - 1.0) < 1e-12


def test_theta_star_ranges():
    rngs = st.stream_rngs(2)
    ridge_star = st.draw_theta_star(st.ridge_generator(), rngs.theta_star)
    assert np.linalg.norm(ridge_star) == pytest.approx(1.0)
    svm_star = st.draw_theta_star(st.svm_generator(), rngs.theta_star)
    assert np.all((svm_star >= 1.0) & (svm_star <= 11.0))


def test_per_round_matches_block():
    for maker in (st.ridge_generator, st.svm_generator):
        gen = maker()
        r1, r2 = st.stream_rngs(99), st.stream_rngs(99)
        gen1 = st.resolve_theta_star(gen, r1)
        gen2 = st.resolve_theta_star(gen, r2)
        np.testing.assert_array_equal(gen1.theta_star, gen2.theta_star)
        X, y = st.gen_clean_block(gen1, r1, 50)
        for t in range(50):
            s = gen_clean_round(gen2, r2)
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


@pytest.mark.parametrize("maker", [st.ridge_generator, st.svm_generator])
@pytest.mark.parametrize("k", [0, 9, 60])
def test_chunked_draws_equal_block_draw(maker, k):
    # uneven chunks, including single rounds and chunks with no corrupted round
    T, sizes = 60, (1, 7, 2, 19, 1, 30)
    gen, X, y_clean, y_emitted, mask = st.episode_stream(maker(), T, k, 23)
    stream = st.EpisodeStream(maker(), T, k, 23)
    np.testing.assert_array_equal(stream.gen.theta_star, gen.theta_star)
    t0 = 0
    for n in sizes:
        Xc, yc, ye, idx = stream.draw(n)
        np.testing.assert_array_equal(Xc, X[t0:t0 + n])
        np.testing.assert_array_equal(yc, y_clean[t0:t0 + n])
        np.testing.assert_array_equal(ye, y_emitted[t0:t0 + n])
        np.testing.assert_array_equal(idx, np.flatnonzero(mask[t0:t0 + n]))
        t0 += n
    assert t0 == T


def test_master_seed_determinism_and_k_invariance():
    gen = st.ridge_generator(dim=5)
    outs = []
    for _ in range(2):
        rngs = st.stream_rngs(321)
        g = st.resolve_theta_star(gen, rngs)
        X, y = st.gen_clean_block(g, rngs, 30)
        rounds = st.sample_outlier_rounds(30, 6, rngs.outliers)
        outs.append((g.theta_star, X, y, rounds))
    np.testing.assert_array_equal(outs[0][1], outs[1][1])
    np.testing.assert_array_equal(outs[0][2], outs[1][2])
    np.testing.assert_array_equal(outs[0][3], outs[1][3])

    # changing k must not perturb the clean stream
    rngs_a, rngs_b = st.stream_rngs(55), st.stream_rngs(55)
    ga = st.resolve_theta_star(gen, rngs_a)
    gb = st.resolve_theta_star(gen, rngs_b)
    st.sample_outlier_rounds(30, 0, rngs_a.outliers)
    st.sample_outlier_rounds(30, 15, rngs_b.outliers)
    Xa, ya = st.gen_clean_block(ga, rngs_a, 30)
    Xb, yb = st.gen_clean_block(gb, rngs_b, 30)
    np.testing.assert_array_equal(Xa, Xb)
    np.testing.assert_array_equal(ya, yb)


def test_k_grid():
    assert st.k_grid(10 ** 5) == [0, 316, 2154, 25000]
    assert st.k_grid(10 ** 4) == [0, 100, 464, 2500]
    assert st.k_grid(200) == [0, 14, 34, 50]
    assert st.floor_power(10 ** 6, 2, 3) == 10 ** 4  # exact at perfect powers
