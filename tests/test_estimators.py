import numpy as np
import pytest

from miscorr.categorical import CategoricalSpec, ObservedDataset, encode_cells, encode_dummy
from miscorr.diagnostics import conditional_bias, var_beta0_c_uncorrelated, variance_report
from miscorr.errors import RankDeficient, ValidationError
from miscorr.estimators import (
    correct,
    correct_intercept,
    correct_slopes,
    fit_corrected,
    fit_prefixes,
    ols_fit,
)
from miscorr.misclass import posterior_from, posterior_rows, scenario_theta
from miscorr.moments import build_moment_blocks
from miscorr.simkit import simulate_w, simulate_x, simulate_y, TruthSpec

LOW2 = scenario_theta("low", 2)
U2 = np.full(2, 0.5)


def test_ols_constant_response():
    x = np.column_stack([np.ones(10), np.arange(10) % 2])
    fit = ols_fit(x, np.full(10, 3.5))
    assert fit.gamma_star == pytest.approx([3.5, 0.0], abs=1e-12)
    assert fit.sigma2_w == pytest.approx(0.0, abs=1e-20)


def test_ols_exact_interpolation():
    design_star = np.column_stack([np.ones(4), [1, 1, 0, 0]])
    fit = ols_fit(design_star, np.array([3.0, 3.0, 1.0, 1.0]))
    assert fit.gamma_star == pytest.approx([1.0, 2.0], abs=1e-12)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(3)
    design_star = np.column_stack([np.ones(60), rng.integers(0, 2, (60, 2))])
    y = rng.standard_normal(60)
    fit = ols_fit(design_star, y)
    resid = y - design_star @ fit.gamma_star
    assert np.abs(design_star.T @ resid).max() < 1e-8 * 60


def test_ols_rank_deficient_reports_column():
    spec = CategoricalSpec((3,))
    w = np.array([[0], [0], [1], [1], [0], [1]])  # level 2 never observed
    bundle = encode_dummy(spec, w)
    with pytest.raises(RankDeficient) as exc:
        ols_fit(bundle.design_star, np.arange(6.0), bundle.column_map)
    assert "covariate 0" in str(exc.value)


def test_correct_slopes_identity_is_noop():
    blocks = build_moment_blocks(CategoricalSpec((2,)), [np.eye(2)], [U2])
    fit = ols_fit(np.column_stack([np.ones(4), [1, 1, 0, 0]]), np.array([3.0, 3, 1, 1]))
    np.testing.assert_allclose(correct_slopes(fit, blocks), fit.slopes)


def test_correct_slopes_undoes_binary_attenuation():
    blocks = build_moment_blocks(CategoricalSpec((2,)), [LOW2], [U2])
    fit = ols_fit(
        np.column_stack([np.ones(4), [1, 1, 0, 0]]),
        np.array([0.751880, 0.751880, 0.0, 0.0]),
    )
    beta_c = correct_slopes(fit, blocks)
    assert beta_c[0] == pytest.approx(1.0, abs=1e-5)


def test_correct_slopes_roundtrip():
    blocks = build_moment_blocks(CategoricalSpec((2,)), [LOW2], [U2])
    gamma = np.array([0.42])
    attenuation = np.linalg.solve(blocks.sigma_w, blocks.sigma_wx)
    np.testing.assert_allclose(
        attenuation @ (blocks.correction @ gamma), gamma, atol=1e-10
    )


def test_correct_intercept_zero_slopes_gives_mean():
    y = np.array([1.0, 2.0, 6.0])
    assert correct_intercept(y, np.zeros((3, 1)), np.zeros(1)) == pytest.approx(3.0)


def test_correct_intercept_hand_arithmetic():
    y = np.array([2.0, 3.0])
    pi = np.array([[0.8], [0.6]])
    assert correct_intercept(y, pi, np.array([1.0])) == pytest.approx(1.8)


def test_correct_intercept_identity_noiseless():
    spec = CategoricalSpec((3,))
    rng = np.random.default_rng(8)
    x = rng.integers(0, 3, (200, 1))
    beta0, beta = 0.5, np.array([0.7, 0.9])
    y = beta0 + encode_dummy(spec, x).design @ beta
    ds = ObservedDataset(y=y, w=x)
    fit = fit_corrected(spec, ds, [np.eye(3)], [np.ones(3) / 3])
    assert fit.beta0_c == pytest.approx(beta0, abs=1e-10)
    np.testing.assert_allclose(fit.beta_c, beta, atol=1e-10)


def test_fit_corrected_identity_theta_matches_naive():
    spec = CategoricalSpec((2, 3))
    rng = np.random.default_rng(11)
    w = np.column_stack([rng.integers(0, 2, 300), rng.integers(0, 3, 300)])
    y = rng.standard_normal(300)
    ds = ObservedDataset(y=y, w=w)
    fit = fit_corrected(spec, ds, [np.eye(2), np.eye(3)], [np.full(2, 0.5), np.ones(3) / 3])
    np.testing.assert_allclose(fit.beta_c, fit.naive.slopes, atol=1e-10)
    assert fit.beta0_c == pytest.approx(fit.naive.intercept, abs=1e-10)
    np.testing.assert_allclose(fit.beta_c_star, fit.naive.gamma_star, atol=1e-10)


def test_fit_corrected_missing_category_surfaces_rank_error():
    spec = CategoricalSpec((3,))
    w = np.tile([[0], [1]], (10, 1))
    ds = ObservedDataset(y=np.arange(20.0), w=w)
    with pytest.raises(RankDeficient):
        fit_corrected(spec, ds, [scenario_theta("low", 3)], [np.ones(3) / 3])


def test_attenuation_recovery_over_replicates():
    # mean corrected slope over replicates approaches the truth while the
    # naive slope stays attenuated by the known factor
    spec = CategoricalSpec((2,))
    truth = TruthSpec(np.array([0.5, 0.7]))
    attn = 0.1875 / 0.249375
    naive_means, corrected_means = [], []
    for rep in range(60):
        rng = np.random.default_rng(1000 + rep)
        x = simulate_x([U2], 5000, rng)
        w = simulate_w(x, [LOW2], rng)
        y = simulate_y(encode_dummy(spec, x).design, truth, 0.1, rng)
        fit = fit_corrected(spec, ObservedDataset(y=y, w=w), [LOW2], [U2])
        naive_means.append(fit.naive.slopes[0])
        corrected_means.append(fit.beta_c[0])
    assert np.mean(corrected_means) == pytest.approx(0.7, abs=0.02)
    assert np.mean(naive_means) == pytest.approx(0.7 * attn, abs=0.02)


def test_reference_relabel_leaves_fitted_values_unchanged():
    # swapping which category is the reference is a reparameterization of
    # the naive fit; fitted values must agree
    spec = CategoricalSpec((3,))
    rng = np.random.default_rng(21)
    w = rng.integers(0, 3, (150, 1))
    y = rng.standard_normal(150) + w[:, 0].astype(float)
    bundle = encode_dummy(spec, w)
    fit = ols_fit(bundle.design_star, y)
    # relabel categories so that 0 becomes the reference
    relabeled = (w + 1) % 3
    bundle2 = encode_dummy(spec, relabeled)
    fit2 = ols_fit(bundle2.design_star, y)
    yhat1 = bundle.design_star @ fit.gamma_star
    yhat2 = bundle2.design_star @ fit2.gamma_star
    np.testing.assert_allclose(yhat1, yhat2, atol=1e-8)


def _prefix_case(w):
    """Design, two response columns, posterior rows and blocks of an
    observed table with levels (3, 2, 2)."""
    levels = (3, 2, 2)
    spec = CategoricalSpec(levels)
    thetas = [scenario_theta("medium", lk) for lk in levels]
    ps = [np.full(lk, 1.0 / lk) for lk in levels]
    ys = np.random.default_rng(30).standard_normal((len(w), 2))
    pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
    blocks = build_moment_blocks(spec, thetas, ps)
    return encode_dummy(spec, w).design_star, ys, pi, blocks


def _assert_matches_one_design_path(design_star, ys, ns, pi, blocks, fits=None):
    """fit_prefixes (or the given fits of these prefixes) refuses exactly
    the prefixes ols_fit raises on and agrees with ols_fit -> correct on the
    others; returns the refused n."""
    fits = fit_prefixes(design_star, ys, ns, pi, blocks) if fits is None else fits
    refused = set()
    for k, n in enumerate(ns):
        for s in range(ys.shape[1]):
            try:
                naive = ols_fit(design_star[:n], ys[:n, s])
            except RankDeficient:
                refused.add(n)
                assert fits.refused[k], n
                assert np.isnan(fits.beta_full[k, s]).all()
                continue
            assert not fits.refused[k], n
            one = correct(naive, ys[:n, s], pi[:n], blocks)
            np.testing.assert_allclose(fits.gamma_star[k, s], naive.gamma_star, rtol=1e-12)
            np.testing.assert_allclose(fits.beta_c_star[k, s], one.beta_c_star, rtol=1e-12)
            np.testing.assert_allclose(fits.beta_full[k, s], one.beta_full, rtol=1e-12)
    return refused


@pytest.mark.parametrize("collinear", ["level_absent", "covariates_equal"])
def test_fit_prefixes_refuses_prefixes_collinear_by_construction(collinear):
    rng = np.random.default_rng(31)
    w = np.column_stack([rng.integers(0, 3, 80), rng.integers(0, 2, 80), rng.integers(0, 2, 80)])
    if collinear == "level_absent":
        w[:12, 0] = rng.choice([0, 2], 12)  # level 1 of w1 is absent from the first 12 rows
        w[12, 0] = 1
    else:
        w[:25, 2] = w[:25, 1]  # w2 and w3 are equal on the first 25 rows
        w[25, 1:] = [0, 1]
    design_star, ys, pi, blocks = _prefix_case(w)
    ns = (10, 12, 13, 25, 26, 40, 80)
    refused = _assert_matches_one_design_path(design_star, ys, ns, pi, blocks)
    assert refused == ({10, 12} if collinear == "level_absent" else {10, 12, 13, 25})


def test_fit_prefixes_one_singular_cell_does_not_sink_the_batch():
    rng = np.random.default_rng(32)
    w = np.column_stack([rng.integers(0, 3, 60), rng.integers(0, 2, 60), rng.integers(0, 2, 60)])
    w[:9, 0] = 2  # an exactly zero column on the first 9 rows: R is exactly singular
    design_star, ys, pi, blocks = _prefix_case(w)
    ns = (30, 9, 60)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.linalg.qr(design_star[:9])[1], np.ones(5))
    assert _assert_matches_one_design_path(design_star, ys, ns, pi, blocks) == {9}
    assert np.isfinite(fit_prefixes(design_star, ys, ns, pi, blocks).beta0_c[[0, 2]]).all()


def test_fit_prefixes_refuses_no_more_rows_than_columns():
    # the first 5 rows span all 5 columns, so only the row count refuses n = 5
    w = np.array([[2, 1, 1], [0, 1, 1], [1, 1, 1], [2, 0, 1], [2, 1, 0], [0, 0, 0],
                  [1, 0, 1], [2, 1, 1], [0, 1, 0], [1, 1, 0]])
    design_star, ys, pi, blocks = _prefix_case(w)
    assert np.linalg.matrix_rank(design_star[:5]) == 5
    ns = (1, 4, 5, 6, 10)
    assert _assert_matches_one_design_path(design_star, ys, ns, pi, blocks) == {1, 4, 5}


@pytest.mark.parametrize("rows", [3, 5])
def test_fit_prefixes_refuses_every_prefix_when_no_n_exceeds_the_columns(rows):
    # 5 columns; with 3 rows the stack has fewer rows than columns
    w = np.array([[2, 1, 1], [0, 1, 1], [1, 1, 1], [2, 0, 1], [2, 1, 0]])[:rows]
    design_star, ys, pi, blocks = _prefix_case(w)
    ns = tuple(range(1, rows + 1))
    assert _assert_matches_one_design_path(design_star, ys, ns, pi, blocks) == set(ns)


def test_fit_prefixes_rejects_prefix_sizes_outside_the_design():
    design_star, ys, pi, blocks = _prefix_case(np.zeros((10, 3), dtype=int) + [0, 1, 0])
    for ns in ((0, 5), (5, 11), ()):
        with pytest.raises(ValidationError):
            fit_prefixes(design_star, ys, ns, pi, blocks)


def _random_table(k, n, seed):
    rng = np.random.default_rng(seed)
    spec = CategoricalSpec(tuple(rng.integers(2, 5, k)))
    thetas = [scenario_theta("medium", lk) for lk in spec.levels]
    ps = [rng.dirichlet(np.full(lk, 4.0)) for lk in spec.levels]
    w = np.column_stack([rng.integers(0, lk, n) for lk in spec.levels])
    y = w @ rng.uniform(0.5, 1.5, k) + rng.standard_normal(n)
    return spec, thetas, ps, w, y


@pytest.mark.parametrize("k", [1, 3, 10])
def test_cell_path_matches_the_encoded_design(k):
    # with K = 10 nearly every row is a cell of its own
    spec, thetas, ps, w, y = _random_table(k, 500, seed=40 + k)
    fit = fit_corrected(spec, ObservedDataset(y=y, w=w), thetas, ps)
    cells = encode_cells(spec, w)
    if k == 10:
        assert len(cells.counts) > 450
    design_star = encode_dummy(spec, w).design_star
    blocks = build_moment_blocks(spec, thetas, ps)
    pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
    rows = correct(ols_fit(design_star, y), y, pi, blocks)
    np.testing.assert_allclose(fit.naive.gamma_star, rows.naive.gamma_star, rtol=1e-12)
    np.testing.assert_allclose(fit.beta_full, rows.beta_full, rtol=1e-12)
    assert fit.naive.sigma2_w == pytest.approx(rows.naive.sigma2_w, rel=1e-12)

    by_cell = variance_report(cells.design_star, blocks, fit.pi_rows, 0.3, cells.counts)
    by_row = variance_report(design_star, blocks, pi, 0.3)
    for field in ("var_gamma_star", "var_beta_c_star", "var_beta0_c"):
        np.testing.assert_allclose(
            getattr(by_cell, field), getattr(by_row, field), rtol=1e-12, atol=1e-15
        )
    assert var_beta0_c_uncorrelated(
        cells.design_star, blocks, fit.pi_rows, 0.3, cells.counts
    ) == pytest.approx(var_beta0_c_uncorrelated(design_star, blocks, pi, 0.3), rel=1e-12)
    truth = 0.5 + 0.2 * np.arange(spec.n_params)
    pi_cells = np.hstack([np.ones((len(cells.counts), 1)), fit.pi_rows])
    bias_cell = conditional_bias(cells.design_star, pi_cells, blocks.z_star, truth, cells.counts)
    bias_row = conditional_bias(design_star, np.hstack([np.ones((500, 1)), pi]), blocks.z_star, truth)
    scale = 1e-12 * np.abs(truth).sum()  # slope biases are 0 up to rounding here
    np.testing.assert_allclose(bias_cell.b_star, bias_row.b_star, rtol=1e-12, atol=scale)
    assert bias_cell.b0 == pytest.approx(bias_row.b0, rel=1e-12, abs=scale)


@pytest.mark.parametrize("rows", [8, 12])
def test_ols_fit_rejects_a_response_of_another_length(rows):
    design_star = np.column_stack([np.ones(10), np.arange(10) % 2])
    with pytest.raises(ValueError):
        ols_fit(design_star, np.arange(float(rows)))


def test_fit_names_the_column_of_an_absent_level():
    spec = CategoricalSpec((3, 2))
    rng = np.random.default_rng(41)
    w = np.column_stack([rng.choice([0, 2], 60), rng.integers(0, 2, 60)])  # w1 never 1
    ds = ObservedDataset(y=rng.standard_normal(60), w=w)
    thetas = [scenario_theta("low", 3), LOW2]
    with pytest.raises(RankDeficient) as exc:
        fit_corrected(spec, ds, thetas, [np.ones(3) / 3, U2])
    assert str(exc.value) == "design column 2 is collinear (covariate 0, level 1)"
    bundle = encode_dummy(spec, w)
    with pytest.raises(RankDeficient) as by_row:
        ols_fit(bundle.design_star, ds.y, bundle.column_map)
    assert str(by_row.value) == str(exc.value)


@pytest.mark.parametrize("collinear", ["level_absent", "covariates_equal", "few_rows"])
def test_fit_prefixes_over_cells_refuses_what_ols_fit_refuses(collinear):
    # cells that are empty in the small prefixes make those stacks rank
    # deficient; the refused set must be the one of per-prefix ols_fit
    rng = np.random.default_rng(33)
    w = np.column_stack([rng.integers(0, 3, 80), rng.integers(0, 2, 80), rng.integers(0, 2, 80)])
    if collinear == "level_absent":
        w[:12, 0] = rng.choice([0, 2], 12)
        w[12, 0] = 1
    elif collinear == "covariates_equal":
        w[:25, 2] = w[:25, 1]
        w[25, 1:] = [0, 1]
    design_star, ys, pi, blocks = _prefix_case(w)
    cells = encode_cells(CategoricalSpec((3, 2, 2)), w)
    ns = (3, 5, 6, 10, 12, 13, 25, 26, 40, 80)
    pi_cells = pi[np.argmax(cells.inverse[:, None] == np.arange(len(cells.counts)), axis=0)]
    fits = fit_prefixes(cells.design_star, ys, ns, pi_cells, blocks, cells.inverse)
    refused = _assert_matches_one_design_path(design_star, ys, ns, pi, blocks, fits)
    assert {3, 5} <= refused and 80 not in refused
    counts = np.array([np.bincount(cells.inverse[:n], minlength=len(cells.counts)) for n in ns])
    np.testing.assert_array_equal(fits.counts, counts)
