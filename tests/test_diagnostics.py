import numpy as np
import pytest

from miscorr.categorical import CategoricalSpec, ObservedDataset, encode_dummy
from miscorr.diagnostics import (
    conditional_bias,
    conditional_response_variance,
    var_beta0_c_uncorrelated,
    variance_report,
)
from miscorr.errors import RankDeficient, ValidationError
from miscorr.estimators import fit_corrected, fit_prefixes, ols_fit
from miscorr.misclass import posterior_from, posterior_rows, scenario_theta
from miscorr.moments import mechanism

LOW2 = scenario_theta("low", 2)
U2 = np.full(2, 0.5)


def _fit_on(design_star, pi_rows, blocks, counts=None):
    """The fit of these rows as ``fit_prefixes`` returns a single fit: row j
    stands for counts[j] observations (default 1), all of them one prefix
    and one response column.  The diagnostics read its rows, counts, R,
    posterior rows and blocks, never its response, so the response is zero."""
    rows = np.arange(len(design_star))
    inverse = rows if counts is None else np.repeat(rows, counts)
    [fit] = fit_prefixes(np.asarray(design_star, dtype=float)[None],
                         np.zeros((1, len(inverse), 1)), [len(inverse)],
                         np.asarray(pi_rows, dtype=float)[None], [blocks], inverse[None])
    return fit


def _binary_fixture(n=40, seed=5):
    rng = np.random.default_rng(seed)
    spec = CategoricalSpec((2,))
    w = rng.integers(0, 2, (n, 1))
    bundle = encode_dummy(spec, w)
    blocks = mechanism(spec, [LOW2], [U2])[0]
    post = posterior_from(LOW2, U2)
    pi = posterior_rows([post], w)
    return spec, w, bundle, blocks, post, pi


def test_bias_zero_under_perfect_classification():
    rng = np.random.default_rng(2)
    w = rng.integers(0, 2, (30, 1))
    spec = CategoricalSpec((2,))
    bundle = encode_dummy(spec, w)
    identity = mechanism(spec, [np.eye(2)], [U2])[0]  # Z = I
    fit = _fit_on(bundle.design_star, bundle.design, identity)  # pi rows = the dummies
    np.testing.assert_array_equal(identity.z_star, np.eye(2))
    report = conditional_bias(fit, np.array([0.5, 0.7]))
    np.testing.assert_allclose(report.b_star, 0.0, atol=1e-10)
    assert report.b0 == pytest.approx(0.0, abs=1e-10)


def test_bias_zero_truth_gives_zero_bias():
    _, _, bundle, blocks, _, pi = _binary_fixture()
    report = conditional_bias(_fit_on(bundle.design_star, pi, blocks), np.zeros(2))
    np.testing.assert_allclose(report.b_star, 0.0, atol=1e-14)


def test_bias_linear_in_truth():
    _, _, bundle, blocks, _, pi = _binary_fixture()
    fit = _fit_on(bundle.design_star, pi, blocks)
    beta = np.array([0.5, 0.7])
    b1 = conditional_bias(fit, beta).b_star
    b3 = conditional_bias(fit, 3 * beta).b_star
    np.testing.assert_allclose(b3, 3 * b1, atol=1e-12)


def test_intercept_bias_hand_arithmetic():
    # low theta, p = (.5, .5): q(W=1) = .5 * .1 + .5 * .85 = .475, so the
    # reference row of the posterior is pi(1, 0) = .05 / .475 = 2 / 19 and the
    # naive intercept is biased by 2 / 19 * beta_1; the corrected estimators
    # are not biased at all
    design = np.array([[1.0, 1.0], [1.0, 0.0]])
    blocks, [post] = mechanism(CategoricalSpec((2,)), [LOW2], [U2])
    fit = _fit_on(design, post.pi[[0, 1], :1], blocks, [1, 2])
    np.testing.assert_allclose(blocks.pi_ref, [2 / 19], rtol=1e-15)
    report = conditional_bias(fit, np.array([0.3, 1.9]))
    np.testing.assert_allclose(report.b_star, [0.2, 0.0], rtol=1e-15)
    assert report.b_star[1] == 0.0 and report.b0 == 0.0


def _expected_gamma(fit, beta):
    """E[gamma_hat | W], independently of the mechanism's closed form: the
    least-squares fit of E[Y | W] = pi* beta on the fit's cell rows, each
    weighted by its count."""
    root = np.sqrt(fit.counts[0])
    pi_star = np.hstack([np.ones((len(fit.pi_rows), 1)), fit.pi_rows])
    design = root[:, None] * fit.design_star
    return np.linalg.lstsq(design, root * (pi_star @ beta), rcond=None)[0]


def test_the_corrected_estimators_are_conditionally_unbiased():
    # E[Y | W] = beta_0 + sum_k pi_k(W_k)^T beta_k is additive in the observed
    # categories, so OLS recovers it on any full-rank W and C undoes the
    # attenuation exactly: only the naive intercept is biased, by the
    # posterior row of each covariate's reference level times its slopes.
    # conditional_bias computes that closed form; the check solves for
    # E[gamma_hat | W] on each fit's own rows
    rng = np.random.default_rng(5)
    fits = 0
    while fits < 150:
        spec = CategoricalSpec(tuple(rng.integers(2, 5, rng.integers(1, 4))))
        thetas = [0.6 * np.eye(lk) + 0.4 * rng.dirichlet(np.ones(lk), lk) for lk in spec.levels]
        ps = [rng.dirichlet(np.full(lk, 3.0)) for lk in spec.levels]
        n = int(rng.integers(30, 401))
        w = np.column_stack([rng.integers(0, lk, n) for lk in spec.levels])
        try:
            fit = fit_corrected(spec, ObservedDataset(y=np.zeros(n), w=w), thetas, ps)
        except RankDeficient:  # a level that never occurs; the CLI refuses such data
            continue
        fits += 1
        beta = rng.uniform(-3, 3, spec.n_params)
        report = conditional_bias(fit, beta)
        tol = 1e-12 * np.abs(beta).max()
        expected = fit.blocks.z_star @ _expected_gamma(fit, beta)
        pi_bar = fit.counts[0] @ fit.pi_rows / fit.counts[0].sum()
        np.testing.assert_allclose(report.b_star, expected - beta, rtol=0, atol=tol)
        assert report.b0 == pytest.approx(pi_bar @ (beta[1:] - expected[1:]), abs=tol)


def test_bias_matches_fixed_design_monte_carlo():
    # independent oracle: redraw the true categories from the posterior and
    # the response from the true-category model, refit, average
    spec, w, bundle, blocks, post, pi = _binary_fixture(n=200, seed=17)
    beta_star = np.array([0.5, 0.7])
    sigma = 0.2
    report = conditional_bias(_fit_on(bundle.design_star, pi, blocks), beta_star)
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
        blocks = mechanism(spec, thetas, ps)[0]
        pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
        report = variance_report(_fit_on(bundle.design_star, pi, blocks), 0.25)
        np.testing.assert_allclose(report.var_beta_c_star[0, 0], report.var_gamma_star[0, 0])
        assert report.var_beta0_c[0, 0] == pytest.approx(report.var_gamma_star[0, 0][0, 0])


def test_intercept_variance_is_exact_for_asymmetric_correction():
    # beta0_c = a^T y given W, with a = 1/n - H_1^T C^T pi_bar and
    # H = pinv(W*); a scalar plug-in gives sigma2 * sum(a_i^2)
    rng = np.random.default_rng(21)
    spec = CategoricalSpec((3, 2))
    thetas = [scenario_theta("medium", 3), LOW2]
    ps = [np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])]
    w = np.column_stack([rng.integers(0, 3, 70), rng.integers(0, 2, 70)])
    bundle = encode_dummy(spec, w)
    blocks = mechanism(spec, thetas, ps)[0]
    pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
    c = blocks.correction
    assert not np.allclose(c, c.T, atol=1e-3)
    h_slopes = np.linalg.pinv(bundle.design_star)[1:]
    a = 1.0 / 70 - h_slopes.T @ c.T @ pi.mean(axis=0)
    report = variance_report(_fit_on(bundle.design_star, pi, blocks), 0.09)
    assert report.var_beta0_c[0, 0] == pytest.approx(0.09 * np.sum(a**2), rel=1e-9)


def test_a_matrix_hand_arithmetic():
    # A = W^T (W - W_bar) = 4 * 0.25 for dummies 1,1,0,0; its inverse is the
    # slope block of (W*^T W*)^-1
    spec, blocks = CategoricalSpec((2,)), mechanism(
        CategoricalSpec((2,)), [LOW2], [U2]
    )[0]
    w = np.array([[0], [0], [1], [1]])  # dummies 1,1,0,0
    bundle = encode_dummy(spec, w)
    post = posterior_from(LOW2, U2)
    pi = posterior_rows([post], w)
    report = variance_report(_fit_on(bundle.design_star, pi, blocks), 1.0)
    assert 1.0 / report.var_gamma_star[0, 0][1, 1] == pytest.approx(1.0)


def test_variance_matrices_symmetric_psd():
    _, w, bundle, blocks, post, pi = _binary_fixture(n=80, seed=9)
    report = variance_report(_fit_on(bundle.design_star, pi, blocks), 0.04)
    for mat in (report.var_gamma_star[0, 0], report.var_beta_c_star[0, 0]):
        np.testing.assert_allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(mat).min() > -1e-10
    assert report.var_beta0_c[0, 0] >= 0


def test_corrected_slope_variance_inflated_by_squared_correction():
    _, w, bundle, blocks, post, pi = _binary_fixture(n=120, seed=13)
    c = blocks.correction[0, 0]
    assert abs(c) >= 1
    report = variance_report(_fit_on(bundle.design_star, pi, blocks), 0.04)
    assert report.var_beta_c_star[0, 0][1, 1] == pytest.approx(
        c**2 * report.var_gamma_star[0, 0][1, 1]
    )
    assert report.var_beta_c_star[0, 0][1, 1] > report.var_gamma_star[0, 0][1, 1]


def test_variance_rank_deficient_when_rows_identical():
    spec = CategoricalSpec((2,))
    w = np.zeros((10, 1), dtype=int)
    bundle = encode_dummy(spec, w)
    blocks = mechanism(spec, [LOW2], [U2])[0]
    pi = posterior_rows([posterior_from(LOW2, U2)], w)
    # the fit's own rank guard refuses the design, so it has no variance
    fit = _fit_on(bundle.design_star, pi, blocks)
    assert fit.refused.tolist() == [True]
    report = variance_report(fit, 0.04)
    for field in ("var_gamma_star", "var_beta_c_star", "var_beta0_c"):
        assert np.isnan(getattr(report, field)).all()


def _gram_inverse(r_mat):
    r_inv = np.linalg.solve(r_mat, np.eye(len(r_mat)))
    return r_inv @ r_inv.T


def _per_prefix_variances(fits, sigma2):
    """variance_report's three arrays and var_beta0_c_uncorrelated, taken
    prefix by prefix, each through its own Gram inverse: the reference the
    stacked forms must equal."""
    sigma2 = np.broadcast_to(np.asarray(sigma2, dtype=float), fits.gamma_star.shape[:2])
    z, w_star = fits.blocks.z_star, fits.design_star
    v_rows = fits.pi_rows @ fits.blocks.correction
    var_gamma, var_beta = np.full((2, *sigma2.shape, len(z), len(z)), np.nan)
    var_beta0, uncorrelated = np.full((2, *sigma2.shape), np.nan)
    for k in np.flatnonzero(~fits.refused):
        xtx_inv = _gram_inverse(fits.r[k])
        counts = fits.counts[k]
        n = counts.sum()
        v_bar = counts @ fits.pi_rows @ fits.blocks.correction / n
        s = sigma2[k, :, None, None]
        var_gamma[k], var_beta[k] = xtx_inv * s, s * (z @ xtx_inv @ z.T)
        var_beta0[k] = sigma2[k] * (1.0 / n + v_bar @ xtx_inv[1:, 1:] @ v_bar)
        w_centered = w_star[:, 1:] - counts @ w_star[:, 1:] / n
        u = v_rows @ xtx_inv[1:, 1:]
        per_row = 1.0 + np.einsum("ip,ip->i", u, v_rows - 2.0 * w_centered)
        uncorrelated[k] = sigma2[k] * (counts @ per_row) / n**2
    return var_gamma, var_beta, var_beta0, uncorrelated


def _prefix_stack(ns, rows=60, seed=32):
    """fit_prefixes over the first n rows of a (3, 2, 2) table for each n in
    ``ns``, two response columns; its first 9 rows hold a column of zeros,
    so R is exactly singular there."""
    rng = np.random.default_rng(seed)
    levels = (3, 2, 2)
    spec = CategoricalSpec(levels)
    w = np.column_stack([rng.integers(0, lk, rows) for lk in levels])
    w[:9, 0] = 2
    thetas = [scenario_theta("medium", lk) for lk in levels]
    ps = [np.full(lk, 1.0 / lk) for lk in levels]
    pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
    blocks = mechanism(spec, thetas, ps)[0]
    [fits] = fit_prefixes(encode_dummy(spec, w).design_star[None],
                          rng.standard_normal((1, rows, 2)), ns, pi[None], [blocks],
                          np.arange(rows)[None])
    return fits


def test_the_stacked_variances_equal_the_per_prefix_ones():
    fits = _prefix_stack((30, 9, 4, 60, 22))
    assert fits.refused.tolist() == [False, True, True, False, False]
    plugins = np.array([[0.3, 1.7], [0.5, 0.5], [2.0, 0.1], [0.04, 0.0], [1.0, 9.0]])  # 0 is valid
    for sigma2 in (0.3, plugins):
        report = variance_report(fits, sigma2)
        stacked = (report.var_gamma_star, report.var_beta_c_star, report.var_beta0_c,
                   var_beta0_c_uncorrelated(fits, sigma2))
        for got, want in zip(stacked, _per_prefix_variances(fits, sigma2)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
            assert np.isnan(got[[1, 2]]).all() and np.isfinite(got[[0, 3, 4]]).all()


def test_an_all_refused_stack_has_nan_variances_and_raises_nothing():
    fits = _prefix_stack((9, 5, 3))  # 5 columns: n <= 5 is too few rows, 9 is singular
    assert fits.refused.all()
    with np.errstate(all="raise"):
        report = variance_report(fits, 0.3)
        uncorrelated = var_beta0_c_uncorrelated(fits, 0.3)
    for got in (report.var_gamma_star, report.var_beta_c_star, report.var_beta0_c, uncorrelated):
        assert np.isnan(got).all()


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_the_variances_refuse_a_negative_or_non_finite_plugin(bad):
    fits = _prefix_stack((30, 60))
    plugins = np.array([[0.3, 0.3], [0.3, bad]])
    for variance in (variance_report, var_beta0_c_uncorrelated):
        for sigma2 in (bad, plugins):
            with pytest.raises(ValidationError, match="finite and non-negative"):
                variance(fits, sigma2)


@pytest.mark.parametrize("length", [2, 4])
def test_bias_refuses_a_truth_of_the_wrong_length(length):
    spec = CategoricalSpec((3,))
    theta = scenario_theta("low", 3)
    w = np.arange(30)[:, None] % 3
    blocks = mechanism(spec, [theta], [np.full(3, 1 / 3)])[0]
    pi = posterior_rows([posterior_from(theta, np.full(3, 1 / 3))], w)
    fit = _fit_on(encode_dummy(spec, w).design_star, pi, blocks)
    with pytest.raises(ValidationError, match="need a true beta\\* of 3 parameters, got "
                                              f"{length}"):
        conditional_bias(fit, np.ones(length))


def test_centered_normal_equations_agree_with_qr_slopes():
    # the slope estimator written with the centered Gram matrix equals the
    # direct least squares slopes
    from miscorr.estimators import ols_fit

    rng = np.random.default_rng(31)
    spec = CategoricalSpec((3, 2))
    w = np.column_stack([rng.integers(0, 3, 90), rng.integers(0, 2, 90)])
    bundle = encode_dummy(spec, w)
    y = rng.standard_normal(90)
    gamma_star = ols_fit(bundle.design_star, y)
    wmat = bundle.design
    w_bar = wmat.mean(axis=0)
    a = wmat.T @ (wmat - w_bar)
    rhs = ((y - y.mean())[:, None] * wmat).sum(axis=0)
    gamma = np.linalg.solve(a, rhs)
    np.testing.assert_allclose(gamma, gamma_star[1:], atol=1e-8)


def test_conditional_response_variance_identity_theta():
    post = posterior_from(np.eye(2), U2)
    w = np.array([[0], [1]])
    out = conditional_response_variance([post], w, np.array([0.7]), 0.2)
    np.testing.assert_allclose(out, 0.04, atol=1e-14)


@pytest.mark.parametrize("w", [-1, 3], ids=["negative", "past_the_last_level"])
def test_conditional_response_variance_refuses_w_out_of_range(w):
    # as posterior_rows refuses it: -1 would read the last level's row, 3 past the end
    post = posterior_from(scenario_theta("low", 3), np.full(3, 1 / 3))
    rows = np.array([[0], [w], [2]])
    for call in (lambda: conditional_response_variance([post], rows, np.array([0.7, 0.9]), 0.2),
                 lambda: posterior_rows([post], rows)):
        with pytest.raises(ValidationError, match="out of range for covariate 0"):
            call()


def test_conditional_response_variance_adds_posterior_spread():
    post = posterior_from(LOW2, U2)
    w = np.array([[0]])
    out = conditional_response_variance([post], w, np.array([0.7]), 0.2)
    p = post.pi[0, 0]
    assert out[0] == pytest.approx(0.04 + 0.49 * p * (1 - p), abs=1e-12)
