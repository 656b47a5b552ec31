import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import eval_g, gate_grid, golden_minimize, minimizer_f, random_instance
from robust_oco.learners import project_ball, project_rows
from robust_oco.losses import (
    HINGE_SVM,
    RIDGE,
    LearnParams,
    RoundLoss,
    SideInfo,
    _coef,
    _gate,
    _link,
    _link_coef,
    _link_value,
    _value,
    derive_constants,
    eta,
    eval_f,
    eval_f_many,
    eval_f_rows,
    grad_f,
    grad_f_many,
    grad_f_rows,
    grad_g,
    growth_constants,
    minimizer_rows,
)

RIDGE0 = RoundLoss(family=RIDGE, lam=0.0)  # degenerate, test-only
HINGE0 = RoundLoss(family=HINGE_SVM, lam=0.0)


def v(*args):
    return np.array(args, dtype=float)


# --- eval_f -----------------------------------------------------------------

def test_eval_f_examples():
    assert eval_f(RIDGE0, SideInfo(v(1, 0), 0.0), v(1, 0)) == pytest.approx(1.0)
    assert eval_f(HINGE0, SideInfo(v(1, 0), 1.0), v(2, 0)) == pytest.approx(0.0)
    # (2/2)*1 + (2-1)^2 = 2
    assert eval_f(RoundLoss(RIDGE, 2.0), SideInfo(v(1, 0), 2.0), v(1, 0)) == pytest.approx(2.0)


def test_eval_f_nonnegative(rng):
    for family in (RIDGE, HINGE_SVM):
        for _ in range(200):
            loss, s = random_instance(rng, family)
            theta = rng.normal(0, 5, s.x.shape)
            assert eval_f(loss, s, theta) >= 0.0


def test_eval_f_dim_mismatch():
    with pytest.raises(ValueError):
        eval_f(RIDGE0, SideInfo(v(1, 0), 0.0), v(1, 0, 0))


# --- grad_f -----------------------------------------------------------------

def test_grad_f_examples():
    g = grad_f(RoundLoss(RIDGE, 2.0), SideInfo(v(1, 0), 2.0), v(1, 0))
    np.testing.assert_allclose(g, v(0, 0), atol=1e-15)  # stationary point
    g = grad_f(HINGE0, SideInfo(v(1, 0), 1.0), v(0, 0))
    np.testing.assert_allclose(g, v(-1, 0))
    # -2(0-1)(1,0) = (2,0), cross-checked against central differences
    loss, s, theta = RIDGE0, SideInfo(v(1, 0), 0.0), v(1, 0)
    g = grad_f(loss, s, theta)
    np.testing.assert_allclose(g, v(2, 0))
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (eval_f(loss, s, theta + e) - eval_f(loss, s, theta - e)) / (2 * h)
        assert fd == pytest.approx(g[j], rel=1e-7, abs=1e-7)


def test_grad_f_hinge_kink_convention():
    # margin exactly 1 takes the zero-hinge branch
    loss = RoundLoss(HINGE_SVM, 0.5)
    s = SideInfo(v(1, 0), 1.0)
    np.testing.assert_allclose(grad_f(loss, s, v(1, 0)), 0.5 * v(1, 0))


# --- minimizer_f ------------------------------------------------------------

def test_minimizer_examples():
    m = minimizer_f(RoundLoss(RIDGE, 2.0), SideInfo(v(1, 0), 2.0))
    np.testing.assert_allclose(m, v(1, 0))
    m = minimizer_f(RoundLoss(HINGE_SVM, 1e-4), SideInfo(v(1, 0), 1.0))
    np.testing.assert_allclose(m, v(1, 0))
    m = minimizer_f(RoundLoss(HINGE_SVM, 3.0), SideInfo(v(0, 0), 1.0))
    np.testing.assert_allclose(m, v(0, 0))


def test_minimizer_degenerate_error():
    with pytest.raises(ValueError):
        minimizer_f(RIDGE0, SideInfo(v(0, 0), 1.0))
    with pytest.raises(ValueError):
        minimizer_f(HINGE0, SideInfo(v(0, 0), 1.0))


def test_minimizer_matches_golden_section(rng):
    # brute-force 1-D search along the closed-form direction, <= 1e-7 in argument;
    # instances restricted to curvatures where float arithmetic can localize the
    # argmin that finely (||x|| >= 0.5; hinge on its kink branch ||x||^2 >= lam)
    for family in (RIDGE, HINGE_SVM):
        checked = 0
        while checked < 50:
            loss, s = random_instance(rng, family)
            nx2 = float(s.x @ s.x)
            if nx2 < 0.25 or (family == HINGE_SVM and loss.lam > nx2):
                continue
            m = minimizer_f(loss, s)
            norm = np.linalg.norm(m)
            if norm < 1e-12:
                continue
            u = m / norm
            c = golden_minimize(lambda c: eval_f(loss, s, c * u), -1.0, max(4.0 * norm, 1.0))
            assert abs(c - norm) <= 1e-7
            checked += 1


def test_minimizer_is_global_min(rng):
    for family in (RIDGE, HINGE_SVM):
        for _ in range(100):
            loss, s = random_instance(rng, family)
            m = minimizer_f(loss, s)
            fm = eval_f(loss, s, m)
            for _ in range(10):
                theta = m + rng.normal(0, 2.0, m.shape)
                assert eval_f(loss, s, theta) >= fm - 1e-12


# --- eta --------------------------------------------------------------------

def test_eta_examples():
    assert eta(LearnParams(1, 1), 0.0) == pytest.approx(0.5)
    # e^{-1}/(10+e^{-1}) = 1/(1+10e), independently evaluated
    assert eta(LearnParams(10, 10), 10.0) == pytest.approx(0.03548261177792751, rel=1e-12)
    assert eta(LearnParams(1, 1), 1e6) == 0.0  # saturated


def test_eta_errors_and_range(rng):
    with pytest.raises(ValueError):
        eta(LearnParams(1, 1), -0.1)
    with pytest.raises(ValueError):
        eta(LearnParams(1, 1), np.array([0.0, -1.0]))
    for _ in range(100):
        a, b = rng.uniform(0.1, 20), rng.uniform(0.1, 20)
        f = rng.uniform(0, 50)
        e = eta(LearnParams(a, b), f)
        assert 0.0 < e <= 1.0 / (1.0 + b) + 1e-15


def test_eta_monotone_and_floor():
    params = LearnParams(3.0, 0.7)
    fs = np.linspace(0.0, 200.0, 500)
    es = eta(params, fs)
    assert np.all(np.diff(es) <= 1e-15)  # nonincreasing
    B = 12.0
    xi = derive_constants(params, G=0, L=0, m=1.0, B=B).xi
    assert np.all(es[fs <= B] >= 1.0 / xi - 1e-12)


def test_eta_array_matches_scalar(rng):
    params = LearnParams(2.5, 4.0)
    fs = rng.uniform(0, 100, 64)
    arr = eta(params, fs)
    for fval, e in zip(fs, arr):
        assert eta(params, float(fval)) == pytest.approx(e, rel=1e-15)
    # b exp(f/a) overflows to inf on the last two: the gate is exactly 0, without a warning
    big = eta(params, np.array([0.0, 2.5 * 700.0, 2.5 * 710.0, 1e308]))
    assert big[0] == 1.0 / (1.0 + 4.0) and big[1] > 0.0
    np.testing.assert_array_equal(big[2:], 0.0)


@pytest.mark.parametrize("b", [10.0, 0.5])
@pytest.mark.parametrize("a", [1e4, 10.0, 0.01])
def test_unchecked_gate_is_eta_bit_for_bit(a, b):
    # eta is its checks and _gate: on the grid of test_gate_rows_is_eta_by_loss
    # and a few ulps either side of the harness's guard bound, the unchecked
    # gate writes eta's bits into out, through the scratch z; above the bound
    # exp may overflow, which eta silences and a caller of _gate must not meet
    params = LearnParams(a=a, b=b)
    bound = float(params._gate_operands[2])
    f = np.concatenate([gate_grid(params).ravel(), bound + np.arange(-50, 51) * math.ulp(bound)])
    out, z = np.full_like(f, np.nan), np.full_like(f, np.nan)
    with np.errstate(over="ignore"):
        assert _gate(params, f, out, z) is out
    np.testing.assert_array_equal(out.view(np.uint64), eta(params, f).view(np.uint64))
    under = f[f <= bound]
    with np.errstate(over="raise"):   # up to the bound no exp overflows
        _gate(params, under, np.empty_like(under), np.empty_like(under))
    # -0.0 is no negative loss to either: its gate is that of 0
    top = 1.0 / (1.0 + b)
    assert _gate(params, np.array([-0.0]), np.empty(1), np.empty(1))[0] == top == eta(params, -0.0)


# --- eval_g / grad_g --------------------------------------------------------

def test_eval_g_examples():
    params = LearnParams(2.0, math.exp(-2.0))
    g0 = eval_g(params, RIDGE0, SideInfo(v(1.0), 0.0), v(0.0))  # f = 0
    assert g0 == pytest.approx(-0.2538560220859452, rel=1e-12)
    # f huge -> asymptote -a log(b)
    ghuge = eval_g(params, RIDGE0, SideInfo(v(1.0), 0.0), v(1e9))
    assert ghuge == pytest.approx(-2.0 * math.log(math.exp(-2.0)), rel=1e-12)
    g0 = eval_g(LearnParams(1, 1), RIDGE0, SideInfo(v(1.0), 0.0), v(0.0))
    assert g0 == pytest.approx(-math.log(2.0), rel=1e-12)


def test_eval_g_monotone_in_f_and_bounds(rng):
    params = LearnParams(1.7, 0.3)
    loss = RoundLoss(RIDGE, 0.2)
    s = SideInfo(v(1.0, -0.5), 0.7)
    thetas = [rng.normal(0, 3, 2) for _ in range(100)]
    pairs = sorted((eval_f(loss, s, t), eval_g(params, loss, s, t)) for t in thetas)
    gs = [p[1] for p in pairs]
    assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(gs, gs[1:]))
    lo, hi = -params.a * math.log(1 + params.b), -params.a * math.log(params.b)
    assert all(lo - 1e-12 <= g <= hi + 1e-12 for g in gs)


def test_grad_g_examples():
    loss = RoundLoss(RIDGE, 2.0)
    g = grad_g(LearnParams(1, 1), loss, SideInfo(v(1, 0), 2.0), v(1, 0))
    np.testing.assert_allclose(g, v(0, 0), atol=1e-15)
    g = grad_g(LearnParams(1, 1), RIDGE0, SideInfo(v(1, 0), 0.0), v(1, 0))
    np.testing.assert_allclose(g, v(0.5378828427399902, 0.0), rtol=1e-12)
    g = grad_g(LearnParams(1, 1), RIDGE0, SideInfo(v(1, 0), 0.0), v(1e8, 0))
    assert np.linalg.norm(g) == 0.0  # redescended to nothing


def test_grad_g_matches_finite_differences(rng):
    # relative error <= 1e-5 away from the hinge kink
    params = LearnParams(5.0, 2.0)
    for family in (RIDGE, HINGE_SVM):
        checked = 0
        while checked < 60:
            loss, s = random_instance(rng, family)
            theta = minimizer_f(loss, s) + rng.normal(0, 1.0, s.x.shape)
            if family == HINGE_SVM and abs(1.0 - s.y * float(s.x @ theta)) < 1e-3:
                continue
            g = grad_g(params, loss, s, theta)
            if np.linalg.norm(g) < 1e-2:
                continue
            h = 1e-6 * (1.0 + np.linalg.norm(theta))
            fd = np.empty_like(theta)
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (eval_g(params, loss, s, theta + e) - eval_g(params, loss, s, theta - e)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)
            checked += 1


def test_transform_preserves_minimizer(rng):
    # minimizer_f also minimizes eval_g to within 1e-8, judged against a line search
    params = LearnParams(2.0, 0.5)
    for family in (RIDGE, HINGE_SVM):
        for _ in range(30):
            loss, s = random_instance(rng, family)
            m = minimizer_f(loss, s)
            norm = np.linalg.norm(m)
            if norm < 1e-9:
                continue
            u = m / norm
            c = golden_minimize(lambda c: eval_g(params, loss, s, c * u), -1.0, max(4.0 * norm, 1.0))
            g_closed = eval_g(params, loss, s, m)
            g_search = eval_g(params, loss, s, c * u)
            assert g_closed <= g_search + 1e-8


# --- inequality spot checks (full-scale versions live in the oracle suite) ---

def test_invexity_inequality(rng):
    for family in (RIDGE, HINGE_SVM):
        params = LearnParams(1.0, 1.0)
        for _ in range(2000):
            loss, s = random_instance(rng, family)
            omega = minimizer_f(loss, s)
            theta = omega + rng.normal(0, 3.0, s.x.shape)
            lhs = eval_g(params, loss, s, theta) - eval_g(params, loss, s, omega)
            rhs = float(grad_f(loss, s, theta) @ (theta - omega))
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_eta_grad_and_eta_f_bounds(rng):
    params = LearnParams(10.0, 10.0)
    loss = RoundLoss(RIDGE, 0.5)
    consts = derive_constants(params, G=0.0, L=loss.lam + 2 * 9.0, m=loss.lam)
    for _ in range(2000):
        _, s = random_instance(rng, RIDGE, lam=loss.lam)
        omega = minimizer_f(loss, s)
        r = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        u = rng.standard_normal(s.x.shape)
        theta = omega + r * u / np.linalg.norm(u)
        f = eval_f(loss, s, theta)
        assert eta(params, f) * np.linalg.norm(grad_f(loss, s, theta)) <= consts.psi + 1e-9
        assert eta(params, f) * f <= consts.nu + 1e-9


# --- derive_constants -------------------------------------------------------

def test_derive_constants_examples():
    params = LearnParams(10.0, 10.0)
    c = derive_constants(params, G=0.3, L=0.0, m=2.0, B=1.0)
    assert c.nu == pytest.approx(1.0)
    assert c.xi == pytest.approx(12.051709180756477, rel=1e-12)
    assert c.psi == pytest.approx(0.3)  # L = 0 kills both max arguments
    c2 = derive_constants(LearnParams(2.0, 0.5), G=1.0, L=3.0, m=0.7, B=0.0)
    assert c2.psi == pytest.approx(1.0 + max(0.7 * 3 / (2 * 2 * 0.5), 4 * 4 * 3 / (0.49 * 0.5)))
    assert c2.phi == pytest.approx(2.0 * max(0.7 / 4.0, 16.0 / 0.49))
    assert c2.kappa == pytest.approx(2.0 * max(0.7 / 4.0, 4.0 / 0.7))


def test_growth_constants(rng):
    assert growth_constants(RoundLoss(RIDGE, 0.5), 4.0, 7.0) == (0.0, 8.5)
    assert growth_constants(RoundLoss(HINGE_SVM, 0.5), 4.0, 0.25) == (2.125, 0.5)
    G, L = growth_constants(RoundLoss(RIDGE, 0.5), np.array([1.0, 4.0]), np.zeros(2))
    assert G == 0.0
    np.testing.assert_array_equal(L, [2.5, 8.5])   # one L per round
    # each round's own pair bounds its gradient growth at any theta
    for family in (RIDGE, HINGE_SVM):
        for _ in range(500):
            loss, s = random_instance(rng, family)
            omega = minimizer_f(loss, s)
            G, L = growth_constants(loss, float(s.x @ s.x), float(np.linalg.norm(omega)))
            theta = omega + math.exp(rng.uniform(-7.0, 7.0)) * rng.standard_normal(s.x.shape)
            rhs = G + L * np.linalg.norm(theta - omega)
            assert np.linalg.norm(grad_f(loss, s, theta)) <= rhs * (1.0 + 1e-12)


def test_derive_constants_errors():
    with pytest.raises(ValueError):
        derive_constants(LearnParams(1, 1), G=0, L=0, m=0.0)
    with pytest.raises(ValueError):
        derive_constants(LearnParams(1, 1), G=-1, L=0, m=1.0)
    for m in (1e-160, 1e-170):   # psi overflows at the first m; m^2 underflows to 0 at the second
        with pytest.raises(ValueError, match=rf"psi, phi and kappa are not finite at m = {m!r} \(a = 10.0"):
            derive_constants(LearnParams(10.0, 10.0), G=np.float64(0.0), L=np.float64(800.0), m=m)


# --- vectorized companions --------------------------------------------------

@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=hst.sampled_from((RIDGE, HINGE_SVM)), lam=hst.floats(1e-4, 4.0),
       d=hst.integers(1, 6), seed=hst.integers(0, 2 ** 32 - 1))
def test_batch_helpers_match_scalar_ops(family, lam, d, seed):
    """The scalar, one-round-many-actions (_many) and many-rounds (_rows) forms
    agree on f, grad f and theta*; the hinge kink takes c = 0 and a zero feature
    row gives theta* = 0 in every shape; project_rows is project_ball by rows."""
    rng = np.random.default_rng(seed)
    loss = RoundLoss(family=family, lam=lam)
    T = 8
    X = rng.normal(0, 2, (T, d))
    y = rng.normal(0, 2, T) if family == RIDGE else rng.choice([-1.0, 1.0], T)
    Theta = rng.normal(0, 2, (T, d))
    X[0] = 0.0
    # row 1: <x, theta> = y exactly (one nonzero product, a power of two), the hinge kink
    j = int(rng.integers(d))
    X[1, j] = 2.0 ** int(rng.integers(-3, 4))
    Theta[1] = 0.0
    Theta[1, j] = y[1] / X[1, j]

    M = minimizer_rows(loss, X, y)
    F = eval_f_rows(loss, X, y, Theta)
    G = grad_f_rows(loss, X, y, Theta, np.vecdot(X, Theta))
    for t in range(T):
        s = SideInfo(X[t], float(y[t]))
        np.testing.assert_allclose(M[t], minimizer_f(loss, s), rtol=1e-12, atol=1e-12)
        assert F[t] == pytest.approx(eval_f(loss, s, Theta[t]), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(G[t], grad_f(loss, s, Theta[t]), rtol=1e-12, atol=1e-12)
        fs = eval_f_many(loss, s, Theta)
        gs = grad_f_many(loss, s, Theta)
        assert fs[t] == pytest.approx(F[t], rel=1e-12, abs=1e-12)
        for i in range(T):
            assert fs[i] == pytest.approx(eval_f(loss, s, Theta[i]), rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(gs[i], grad_f(loss, s, Theta[i]), rtol=1e-12, atol=1e-12)

    # the link kernels write the same bits into a given out, as the episode loop calls them
    proj, sq = np.vecdot(X, Theta), np.vecdot(Theta, Theta)
    u, f, c = np.full(T, np.nan), np.full(T, np.nan), np.full(T, np.nan)
    assert _link(loss, proj, y, out=u) is u
    assert _link_value(loss, u, sq, out=f) is f and _link_coef(loss, u, y, out=c) is c
    np.testing.assert_array_equal(f.view(np.uint64), _value(loss, proj, sq, y).view(np.uint64))
    np.testing.assert_array_equal(c.view(np.uint64), _coef(loss, proj, y).view(np.uint64))

    np.testing.assert_array_equal(M[0], 0.0)
    np.testing.assert_array_equal(minimizer_f(loss, SideInfo(X[0], float(y[0]))), 0.0)
    degenerate = RoundLoss(family=family, lam=0.0)
    with pytest.raises(ValueError):
        minimizer_f(degenerate, SideInfo(X[0], float(y[0])))
    with pytest.raises(ValueError):
        minimizer_rows(degenerate, X, y)

    if family == HINGE_SVM:
        s1, theta1 = SideInfo(X[1], float(y[1])), Theta[1]
        reg = 0.5 * lam * float(theta1 @ theta1)
        np.testing.assert_array_equal(grad_f(loss, s1, theta1), lam * theta1)
        np.testing.assert_array_equal(grad_f_many(loss, s1, Theta[1:2])[0], lam * theta1)
        np.testing.assert_array_equal(G[1], lam * theta1)
        assert eval_f(loss, s1, theta1) == F[1] == eval_f_many(loss, s1, Theta[1:2])[0] == reg

    radii = rng.uniform(0.1, 5.0, T)
    radii[::3] = math.inf
    for r in (radii, float(radii[1])):
        P = Theta.copy()
        norms = project_rows(P, r)
        np.testing.assert_array_equal(norms, np.linalg.norm(Theta, axis=1))
        for t in range(T):
            r_t = r[t] if isinstance(r, np.ndarray) else r
            np.testing.assert_allclose(P[t], project_ball(Theta[t], r_t), rtol=1e-12, atol=0)


@pytest.mark.parametrize("family", [RIDGE, HINGE_SVM])
@pytest.mark.parametrize("d", [1, 2, 5, 6])
@pytest.mark.parametrize("T", [0, 1, 7, 300])
def test_eval_f_rows_on_a_stack_is_each_slices_call_bit_for_bit(family, d, T):
    """A (2, 3, T, d) stack of actions gives each (T, d) slice the bits of its
    own call, and a (T, d) call gives those of the row-by-row einsum form."""
    rng = np.random.default_rng(1000 * d + T)
    loss = RoundLoss(family=family, lam=0.5)
    X = rng.normal(0, 2, (T, d))
    y = rng.normal(0, 2, T) if family == RIDGE else rng.choice([-1.0, 1.0], T)
    stack = rng.normal(0, 2, (2, 3, T, d)) * np.exp(rng.uniform(-8, 8, (2, 3, T, 1)))
    F = eval_f_rows(loss, X, y, stack)
    assert F.shape == (2, 3, T)
    for i in range(2):
        for j in range(3):
            Theta = np.ascontiguousarray(stack[i, j])
            one = eval_f_rows(loss, X, y, Theta)
            einsum = _value(loss, np.einsum("ij,ij->i", X, Theta), np.einsum("ij,ij->i", Theta, Theta), y)
            np.testing.assert_array_equal(F[i, j].view(np.uint64), one.view(np.uint64))
            np.testing.assert_array_equal(one.view(np.uint64), einsum.view(np.uint64))
