import numpy as np
import pytest

from miscorr.categorical import CategoricalSpec, encode_dummy
from miscorr.diagnostics import (
    conditional_bias,
    conditional_response_variance,
    variance_report,
)
from miscorr.errors import RankDeficient
from miscorr.misclass import posterior_from, posterior_rows, scenario_theta
from miscorr.moments import build_moment_blocks

LOW2 = scenario_theta("low", 2)
U2 = np.full(2, 0.5)


def _binary_fixture(n=40, seed=5):
    rng = np.random.default_rng(seed)
    spec = CategoricalSpec((2,))
    w = rng.integers(0, 2, (n, 1))
    bundle = encode_dummy(spec, w)
    blocks = build_moment_blocks(spec, [LOW2], [U2])
    post = posterior_from(LOW2, U2)
    pi = posterior_rows([post], w)
    pi_star = np.hstack([np.ones((n, 1)), pi])
    return spec, w, bundle, blocks, post, pi, pi_star


def test_bias_zero_under_perfect_classification():
    rng = np.random.default_rng(2)
    w = rng.integers(0, 2, (30, 1))
    bundle = encode_dummy(CategoricalSpec((2,)), w)
    report = conditional_bias(
        bundle.design_star, bundle.design_star, np.eye(2), np.array([0.5, 0.7])
    )
    np.testing.assert_allclose(report.b_star, 0.0, atol=1e-10)
    assert report.b0 == pytest.approx(0.0, abs=1e-10)


def test_bias_zero_truth_gives_zero_bias():
    _, _, bundle, blocks, _, _, pi_star = _binary_fixture()
    report = conditional_bias(
        bundle.design_star, pi_star, blocks.z_star, np.zeros(2)
    )
    np.testing.assert_allclose(report.b_star, 0.0, atol=1e-14)


def test_bias_linear_in_truth():
    _, _, bundle, blocks, _, _, pi_star = _binary_fixture()
    beta = np.array([0.5, 0.7])
    b1 = conditional_bias(bundle.design_star, pi_star, blocks.z_star, beta).b_star
    b3 = conditional_bias(bundle.design_star, pi_star, blocks.z_star, 3 * beta).b_star
    np.testing.assert_allclose(b3, 3 * b1, atol=1e-12)


def test_intercept_bias_hand_arithmetic():
    # two cells holding 1 and 2 rows: the fit interpolates them, so
    # E[gamma_hat | W] = W^-1 pi* beta = (0.5, 0) and pi_bar = 0.5
    design = np.array([[1.0, 1.0], [1.0, 0.0]])
    pi_star = np.array([[1.0, 0.5], [1.0, 0.5]])
    report = conditional_bias(design, pi_star, np.eye(2), np.array([0.0, 1.0]), [1, 2])
    np.testing.assert_allclose(report.b_star, [0.5, -1.0], atol=1e-12)
    assert report.b0 == pytest.approx(0.5 * (1.0 - 0.0))


def test_bias_matches_fixed_design_monte_carlo():
    # independent oracle: redraw the true categories from the posterior and
    # the response from the true-category model, refit, average
    spec, w, bundle, blocks, post, pi, pi_star = _binary_fixture(n=200, seed=17)
    beta_star = np.array([0.5, 0.7])
    sigma = 0.2
    report = conditional_bias(bundle.design_star, pi_star, blocks.z_star, beta_star)
    rng = np.random.default_rng(99)
    reps = 2000
    est = np.zeros((reps, 2))
    b0 = np.zeros(reps)
    p_x0 = post.pi[w[:, 0], 0]
    for r in range(reps):
        x = (rng.random(200) > p_x0).astype(int)
        y = beta_star[0] + beta_star[1] * (x == 0) + sigma * rng.standard_normal(200)
        gamma, *_ = np.linalg.lstsq(bundle.design_star, y, rcond=None)
        beta_c = blocks.correction @ gamma[1:]
        est[r] = [gamma[0], beta_c[0]]
        b0[r] = np.mean(y - pi @ beta_c)
    emp_bias = est.mean(axis=0) - beta_star
    mcse = est.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(emp_bias - report.b_star) < 3 * mcse)
    emp_b0 = b0.mean() - beta_star[0]
    mcse_b0 = b0.std(ddof=1) / np.sqrt(reps)
    assert abs(emp_b0 - report.b0) < 3 * mcse_b0


def test_variance_identity_theta_matches_naive():
    # with theta = I the corrected intercept is the OLS intercept itself
    rng = np.random.default_rng(4)
    for levels in ((2,), (3, 2)):
        spec = CategoricalSpec(levels)
        w = np.column_stack([rng.integers(0, lk, 50) for lk in levels])
        bundle = encode_dummy(spec, w)
        thetas = [np.eye(lk) for lk in levels]
        ps = [np.full(lk, 1.0 / lk) for lk in levels]
        blocks = build_moment_blocks(spec, thetas, ps)
        pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
        report = variance_report(bundle.design_star, blocks, pi, 0.25)
        np.testing.assert_allclose(report.var_beta_c_star, report.var_gamma_star)
        assert report.var_beta0_c == pytest.approx(report.var_gamma_star[0, 0])


def test_intercept_variance_is_exact_for_asymmetric_correction():
    # beta0_c = a^T y given W, with a = 1/n - H_1^T C^T pi_bar and
    # H = pinv(W*); a scalar plug-in gives sigma2 * sum(a_i^2)
    rng = np.random.default_rng(21)
    spec = CategoricalSpec((3, 2))
    thetas = [scenario_theta("medium", 3), LOW2]
    ps = [np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])]
    w = np.column_stack([rng.integers(0, 3, 70), rng.integers(0, 2, 70)])
    bundle = encode_dummy(spec, w)
    blocks = build_moment_blocks(spec, thetas, ps)
    pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
    c = blocks.correction
    assert not np.allclose(c, c.T, atol=1e-3)
    h_slopes = np.linalg.pinv(bundle.design_star)[1:]
    a = 1.0 / 70 - h_slopes.T @ c.T @ pi.mean(axis=0)
    report = variance_report(bundle.design_star, blocks, pi, 0.09)
    assert report.var_beta0_c == pytest.approx(0.09 * np.sum(a**2), rel=1e-9)


def test_a_matrix_hand_arithmetic():
    # A = W^T (W - W_bar) = 4 * 0.25 for dummies 1,1,0,0; its inverse is the
    # slope block of (W*^T W*)^-1
    spec, blocks = CategoricalSpec((2,)), build_moment_blocks(
        CategoricalSpec((2,)), [LOW2], [U2]
    )
    w = np.array([[0], [0], [1], [1]])  # dummies 1,1,0,0
    bundle = encode_dummy(spec, w)
    post = posterior_from(LOW2, U2)
    pi = posterior_rows([post], w)
    report = variance_report(bundle.design_star, blocks, pi, 1.0)
    assert 1.0 / report.var_gamma_star[1, 1] == pytest.approx(1.0)


def test_variance_matrices_symmetric_psd():
    _, w, bundle, blocks, post, pi, _ = _binary_fixture(n=80, seed=9)
    report = variance_report(bundle.design_star, blocks, pi, 0.04)
    for mat in (report.var_gamma_star, report.var_beta_c_star):
        np.testing.assert_allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(mat).min() > -1e-10
    assert report.var_beta0_c >= 0


def test_corrected_slope_variance_inflated_by_squared_correction():
    _, w, bundle, blocks, post, pi, _ = _binary_fixture(n=120, seed=13)
    c = blocks.correction[0, 0]
    assert abs(c) >= 1
    report = variance_report(bundle.design_star, blocks, pi, 0.04)
    assert report.var_beta_c_star[1, 1] == pytest.approx(
        c**2 * report.var_gamma_star[1, 1]
    )
    assert report.var_beta_c_star[1, 1] > report.var_gamma_star[1, 1]


def test_variance_rank_deficient_when_rows_identical():
    spec = CategoricalSpec((2,))
    w = np.zeros((10, 1), dtype=int)
    bundle = encode_dummy(spec, w)
    blocks = build_moment_blocks(spec, [LOW2], [U2])
    pi = posterior_rows([posterior_from(LOW2, U2)], w)
    with pytest.raises(RankDeficient):
        variance_report(bundle.design_star, blocks, pi, 1.0)


def test_centered_normal_equations_agree_with_qr_slopes():
    # the slope estimator written with the centered Gram matrix equals the
    # direct least squares slopes
    from miscorr.estimators import ols_fit

    rng = np.random.default_rng(31)
    spec = CategoricalSpec((3, 2))
    w = np.column_stack([rng.integers(0, 3, 90), rng.integers(0, 2, 90)])
    bundle = encode_dummy(spec, w)
    y = rng.standard_normal(90)
    fit = ols_fit(bundle.design_star, y)
    wmat = bundle.design
    w_bar = wmat.mean(axis=0)
    a = wmat.T @ (wmat - w_bar)
    rhs = ((y - y.mean())[:, None] * wmat).sum(axis=0)
    gamma = np.linalg.solve(a, rhs)
    np.testing.assert_allclose(gamma, fit.slopes, atol=1e-8)


def test_conditional_response_variance_identity_theta():
    post = posterior_from(np.eye(2), U2)
    w = np.array([[0], [1]])
    out = conditional_response_variance([post], w, np.array([0.7]), 0.2)
    np.testing.assert_allclose(out, 0.04, atol=1e-14)


def test_conditional_response_variance_adds_posterior_spread():
    post = posterior_from(LOW2, U2)
    w = np.array([[0]])
    out = conditional_response_variance([post], w, np.array([0.7]), 0.2)
    p = post.pi[0, 0]
    assert out[0] == pytest.approx(0.04 + 0.49 * p * (1 - p), abs=1e-12)
