from functools import partial

import numpy as np
import pytest

from miscorr.categorical import (
    CategoricalSpec, ObservedDataset, encode_cells, encode_dummy, validate_dataset
)
from miscorr.diagnostics import conditional_bias, var_beta0_c_uncorrelated, variance_report
from miscorr.errors import NonIdentifiable, RankDeficient, ValidationError
from miscorr.estimators import fit_cells, fit_corrected, fit_prefixes, ols_fit
from miscorr.misclass import estimate_marginal, posterior_from, posterior_rows, scenario_theta
from miscorr.moments import mechanism
from miscorr.simkit import (
    ScenarioConfig, TruthSpec, intercept_variance_curve, replicate_designs, simulate_w,
    simulate_x
)

LOW2 = scenario_theta("low", 2)
U2 = np.full(2, 0.5)


def _single_fit(design_star, y, pi_rows, blocks):
    """``fit_prefixes`` on the stack of one: every row of the design one
    observation, all of them one prefix, and y one response column."""
    [fit] = fit_prefixes(np.asarray(design_star, dtype=float)[None], np.asarray(y)[None, :, None],
                         [len(y)], np.asarray(pi_rows, dtype=float)[None], [blocks],
                         np.arange(len(y))[None])
    return fit


def _ols_then_correct(design_star, y, pi_rows, blocks):
    """The one-design reference, written out: ``ols_fit`` on the rows, the
    slopes beta_c = C gamma, then the intercept (sum y - (c^T pi) beta_c) / n
    with every count c one.  Returns (gamma_star, beta_c_star, beta_full)."""
    gamma = ols_fit(design_star, y)
    counts = np.ones(len(y), dtype=int)
    beta_c = blocks.correction @ gamma[1:]
    beta0_c = float((y.sum() - (counts @ pi_rows) @ beta_c) / counts.sum())
    return gamma, np.concatenate([gamma[:1], beta_c]), np.concatenate([[beta0_c], beta_c])


def test_ols_constant_response():
    x = np.column_stack([np.ones(10), np.arange(10) % 2])
    gamma = ols_fit(x, np.full(10, 3.5))
    assert gamma == pytest.approx([3.5, 0.0], abs=1e-12)
    assert np.square(3.5 - x @ gamma).sum() / (10 - 2) == pytest.approx(0.0, abs=1e-20)


def test_ols_exact_interpolation():
    design_star = np.column_stack([np.ones(4), [1, 1, 0, 0]])
    gamma = ols_fit(design_star, np.array([3.0, 3.0, 1.0, 1.0]))
    assert gamma == pytest.approx([1.0, 2.0], abs=1e-12)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(3)
    design_star = np.column_stack([np.ones(60), rng.integers(0, 2, (60, 2))])
    y = rng.standard_normal(60)
    resid = y - design_star @ ols_fit(design_star, y)
    assert np.abs(design_star.T @ resid).max() < 1e-8 * 60


def test_ols_rank_deficient_reports_column():
    spec = CategoricalSpec((3,))
    w = np.array([[0], [0], [1], [1], [0], [1]])  # level 2 never observed
    bundle = encode_dummy(spec, w)
    with pytest.raises(RankDeficient) as exc:
        ols_fit(bundle.design_star, np.arange(6.0), bundle.column_map)
    assert "covariate 0" in str(exc.value)


def test_correct_slopes_identity_is_noop():
    blocks = mechanism(CategoricalSpec((2,)), [np.eye(2)], [U2])[0]
    y = np.array([3.0, 3, 1, 1])
    design_star = np.column_stack([np.ones(4), [1, 1, 0, 0]])
    fit = _single_fit(design_star, y, design_star[:, 1:], blocks)
    np.testing.assert_allclose(fit.beta_c[0, 0], fit.gamma_star[0, 0, 1:])


def test_correct_slopes_undoes_binary_attenuation():
    blocks = mechanism(CategoricalSpec((2,)), [LOW2], [U2])[0]
    y = np.array([0.751880, 0.751880, 0.0, 0.0])
    design_star = np.column_stack([np.ones(4), [1, 1, 0, 0]])
    beta_c = _single_fit(design_star, y, np.zeros((4, 1)), blocks).beta_c[0, 0]  # read no pi
    assert beta_c[0] == pytest.approx(1.0, abs=1e-5)


def test_correct_slopes_roundtrip():
    blocks = mechanism(CategoricalSpec((2,)), [LOW2], [U2])[0]
    gamma = np.array([0.42])
    attenuation = np.linalg.solve(blocks.sigma_w, blocks.sigma_wx)
    np.testing.assert_allclose(
        attenuation @ (blocks.correction @ gamma), gamma, atol=1e-10
    )


# with theta = I the correction matrix is the identity, so the corrected
# slopes the intercept reads are the naive ones
IDENTITY2 = mechanism(CategoricalSpec((2,)), [np.eye(2)], [U2])[0]
# two observations in each of the cells w = 0 (indicator 1) and w = 1
TWO_CELLS = np.column_stack([np.ones(4), [1, 1, 0, 0]])


def test_correct_intercept_zero_slopes_gives_mean():
    y = np.array([1.0, 5.0, 2.0, 4.0])  # both cells have mean 3
    fit = _single_fit(TWO_CELLS, y, [[0.8], [0.6], [0.3], [0.1]], IDENTITY2)
    assert fit.gamma_star[0, 0, 1] == pytest.approx(0.0, abs=1e-12)
    assert fit.beta0_c[0, 0] == pytest.approx(3.0)


def test_correct_intercept_hand_arithmetic():
    y = np.array([2.0, 0.0, 1.0, -1.0])  # gamma = (0, 1)
    pi = np.array([[0.8], [0.6], [0.3], [0.1]])
    fit = _single_fit(TWO_CELLS, y, pi, IDENTITY2)
    np.testing.assert_allclose(fit.gamma_star[0, 0], [0.0, 1.0], atol=1e-12)
    assert fit.beta0_c[0, 0] == pytest.approx((2.0 - 1.8) / 4)  # (sum y - sum pi beta_c) / n


def test_correct_intercept_identity_noiseless():
    spec = CategoricalSpec((3,))
    rng = np.random.default_rng(8)
    x = rng.integers(0, 3, (200, 1))
    beta0, beta = 0.5, np.array([0.7, 0.9])
    y = beta0 + encode_dummy(spec, x).design @ beta
    ds = ObservedDataset(y=y, w=x)
    fit = fit_corrected(spec, ds, [np.eye(3)], [np.ones(3) / 3])
    assert fit.beta0_c[0, 0] == pytest.approx(beta0, abs=1e-10)
    np.testing.assert_allclose(fit.beta_c[0, 0], beta, atol=1e-10)


def test_fit_corrected_identity_theta_matches_naive():
    spec = CategoricalSpec((2, 3))
    rng = np.random.default_rng(11)
    w = np.column_stack([rng.integers(0, 2, 300), rng.integers(0, 3, 300)])
    y = rng.standard_normal(300)
    ds = ObservedDataset(y=y, w=w)
    fit = fit_corrected(spec, ds, [np.eye(2), np.eye(3)], [np.full(2, 0.5), np.ones(3) / 3])
    np.testing.assert_allclose(fit.beta_c[0, 0], fit.gamma_star[0, 0, 1:], atol=1e-10)
    assert fit.beta0_c[0, 0] == pytest.approx(fit.gamma_star[0, 0, 0], abs=1e-10)
    np.testing.assert_allclose(fit.beta_c_star, fit.gamma_star, atol=1e-10)


def test_fit_corrected_missing_category_surfaces_rank_error():
    spec = CategoricalSpec((3,))
    w = np.tile([[0], [1]], (10, 1))
    ds = ObservedDataset(y=np.arange(20.0), w=w)
    with pytest.raises(RankDeficient):
        fit_corrected(spec, ds, [scenario_theta("low", 3)], [np.ones(3) / 3])


@pytest.mark.parametrize("n", [0, 4])
def test_fit_corrected_refuses_no_more_rows_than_parameters(n):
    spec = CategoricalSpec((2, 3))  # M = 4
    w = np.array([[0, 0], [1, 1], [0, 2], [1, 0]])[:n]
    ds = ObservedDataset(y=np.arange(float(n)), w=w)
    thetas = [scenario_theta("low", 2), scenario_theta("low", 3)]
    with pytest.raises(RankDeficient, match=f"^need more than 4 rows, got {n}$"):
        fit_corrected(spec, ds, thetas, [np.full(2, 0.5), np.ones(3) / 3])


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
        design = encode_dummy(spec, x).design
        y = truth.beta_star[0] + design @ truth.beta_star[1:] + 0.1 * rng.standard_normal(5000)
        fit = fit_corrected(spec, ObservedDataset(y=y, w=w), [LOW2], [U2])
        naive_means.append(fit.gamma_star[0, 0, 1])
        corrected_means.append(fit.beta_c[0, 0, 0])
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
    gamma = ols_fit(bundle.design_star, y)
    # relabel categories so that 0 becomes the reference
    relabeled = (w + 1) % 3
    bundle2 = encode_dummy(spec, relabeled)
    gamma2 = ols_fit(bundle2.design_star, y)
    yhat1 = bundle.design_star @ gamma
    yhat2 = bundle2.design_star @ gamma2
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
    blocks = mechanism(spec, thetas, ps)[0]
    return encode_dummy(spec, w).design_star, ys, pi, blocks


def _assert_matches_one_design_path(design_star, ys, ns, pi, blocks, fits=None):
    """fit_prefixes (or the given fits of these prefixes) refuses exactly
    the prefixes ols_fit raises on and agrees with the one-design reference
    on the others; returns the refused n."""
    if fits is None:
        [fits] = fit_prefixes(design_star[None], ys[None], ns, pi[None], [blocks],
                              np.arange(len(ys))[None])
    refused = set()
    for k, n in enumerate(ns):
        for s in range(ys.shape[1]):
            try:
                gamma, beta_c_star, beta_full = _ols_then_correct(design_star[:n], ys[:n, s],
                                                                  pi[:n], blocks)
            except RankDeficient:
                refused.add(n)
                assert fits.refused[k], n
                assert np.isnan(fits.beta_full[k, s]).all()
                continue
            assert not fits.refused[k], n
            np.testing.assert_allclose(fits.gamma_star[k, s], gamma, rtol=1e-12)
            np.testing.assert_allclose(fits.beta_c_star[k, s], beta_c_star, rtol=1e-12)
            np.testing.assert_allclose(fits.beta_full[k, s], beta_full, rtol=1e-12)
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
    [fits] = fit_prefixes(design_star[None], ys[None], ns, pi[None], [blocks],
                          np.arange(len(ys))[None])
    assert np.isfinite(fits.beta0_c[[0, 2]]).all()
    uncorrelated = var_beta0_c_uncorrelated(fits, np.ones((3, 1)))
    assert np.isnan(uncorrelated[1]).all() and np.isfinite(uncorrelated[[0, 2]]).all()


def test_a_prefix_singular_in_one_design_of_a_stack_is_refused_there_only():
    rng = np.random.default_rng(32)
    ws = [np.column_stack([rng.integers(0, 3, 60), rng.integers(0, 2, 60),
                           rng.integers(0, 2, 60)]) for _ in range(3)]
    ws[1][:9, 0] = 2  # an exactly zero column on design 1's first 9 rows
    cases = [_prefix_case(w) for w in ws]
    design_star, ys, pi, blocks = zip(*cases)
    ns = (30, 9, 60)
    stacked = fit_prefixes(np.stack(design_star), np.stack(ys), ns, np.stack(pi), blocks,
                           np.tile(np.arange(60), (3, 1)))
    assert [fits.refused.tolist() for fits in stacked] == [
        [False, False, False], [False, True, False], [False, False, False]]
    for case, fits in zip(cases, stacked):
        assert _assert_matches_one_design_path(*case[:2], ns, *case[2:], fits) == (
            {9} if fits.refused.any() else set())
        assert np.isfinite(fits.beta_full[~fits.refused]).all()


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
            fit_prefixes(design_star[None], ys[None], ns, pi[None], [blocks],
                         np.arange(len(ys))[None])


def test_fit_prefixes_needs_one_design_posterior_table_and_blocks_per_stacked_response():
    cases = [_prefix_case(np.random.default_rng(33).integers(0, 2, (10, 3))) for _ in range(3)]
    design_star, ys, pi, blocks = zip(*cases)
    design_star, ys, pi = np.stack(design_star), np.stack(ys), np.stack(pi)
    inverse = np.tile(np.arange(10), (3, 1))
    assert len(fit_prefixes(design_star, ys, (5, 10), pi, blocks, inverse)) == 3
    for bad in ((design_star, pi, blocks[:1]), (design_star, pi[:2], blocks),
                (design_star[:1], pi, blocks)):
        with pytest.raises(ValidationError):
            fit_prefixes(bad[0], ys, (5, 10), bad[1], bad[2], inverse)

def _random_table(k, n, seed):
    rng = np.random.default_rng(seed)
    spec = CategoricalSpec(tuple(rng.integers(2, 5, k)))
    thetas = [scenario_theta("medium", lk) for lk in spec.levels]
    ps = [rng.dirichlet(np.full(lk, 4.0)) for lk in spec.levels]
    w = np.column_stack([rng.integers(0, lk, n) for lk in spec.levels])
    y = w @ rng.uniform(0.5, 1.5, k) + rng.standard_normal(n)
    return spec, thetas, ps, w, y


@pytest.mark.parametrize("k", [1, 3, 10])
def test_the_fit_on_the_validated_cells_is_fit_corrected_bit_for_bit(k):
    # the CLI validates the columns it read and fits on the cells the report
    # holds; both are the [0, 0] entry of fit_prefixes on the stack of one
    spec, thetas, ps, w, y = _random_table(k, 500, seed=60 + k)
    report = validate_dataset(spec, list(w.T))
    assert report.errors == ()
    fit = fit_cells(spec, report.cells, y, thetas, ps)
    expected = fit_corrected(spec, ObservedDataset(y=y, w=w), thetas, ps)
    cells = encode_cells(spec, w)
    blocks, posteriors = mechanism(spec, thetas, ps)
    [alone] = fit_prefixes(cells.design_star[None], y[None, :, None], [500],
                           posterior_rows(posteriors, cells.categories)[None], [blocks],
                           cells.inverse[None])
    assert alone.rss is None
    resid = y - (cells.design_star @ alone.gamma_star[0, 0])[cells.inverse]
    rss = np.bincount(cells.inverse, resid**2, len(cells.counts))[None, None]
    fields = ("refused", "gamma_star", "beta_c", "beta0_c", "design_star", "counts", "r",
              "pi_rows", "sigma2_w")
    for got in (fit, expected):
        pairs = [(getattr(got, f), getattr(expected, f)) for f in fields]
        pairs += [(getattr(got, f), getattr(alone, f)) for f in fields[:-1]]
        pairs += [(got.rss, rss), (got.blocks.correction, expected.blocks.correction),
                  (got.blocks.correction, alone.blocks.correction)]
        for have, want in pairs:
            have, want = np.asarray(have), np.asarray(want)
            assert (have.dtype, have.shape, have.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes())
    np.testing.assert_array_equal(fit.counts[0], cells.counts)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_cell_path_matches_the_encoded_design(k):
    # with K = 10 nearly every row is a cell of its own
    spec, thetas, ps, w, y = _random_table(k, 500, seed=40 + k)
    fit = fit_corrected(spec, ObservedDataset(y=y, w=w), thetas, ps)
    cells = encode_cells(spec, w)
    if k == 10:
        assert len(cells.counts) > 450
    design_star = encode_dummy(spec, w).design_star
    blocks = mechanism(spec, thetas, ps)[0]
    pi = posterior_rows([posterior_from(t, p) for t, p in zip(thetas, ps)], w)
    gamma, _, beta_full = _ols_then_correct(design_star, y, pi, blocks)
    np.testing.assert_allclose(fit.gamma_star[0, 0], gamma, rtol=1e-12)
    np.testing.assert_allclose(fit.beta_full[0, 0], beta_full, rtol=1e-12)
    sigma2_w = np.square(y - design_star @ gamma).sum() / (500 - spec.n_params)
    assert fit.sigma2_w[0, 0] == pytest.approx(sigma2_w, rel=1e-12)

    rows = _single_fit(design_star, y, pi, blocks)  # one cell per row
    by_cell = variance_report(fit, 0.3)
    by_row = variance_report(rows, 0.3)
    for field in ("var_gamma_star", "var_beta_c_star", "var_beta0_c"):
        np.testing.assert_allclose(
            getattr(by_cell, field), getattr(by_row, field), rtol=1e-12, atol=1e-15
        )
    assert var_beta0_c_uncorrelated(fit, 0.3)[0, 0] == pytest.approx(
        var_beta0_c_uncorrelated(rows, 0.3)[0, 0], rel=1e-12)
    truth = 0.5 + 0.2 * np.arange(spec.n_params)
    bias_cell = conditional_bias(fit, truth)
    bias_row = conditional_bias(rows, truth)
    scale = 1e-12 * np.abs(truth).sum()  # slope biases are 0 up to rounding here
    np.testing.assert_allclose(bias_cell.b_star, bias_row.b_star, rtol=1e-12, atol=scale)
    assert bias_cell.b0 == pytest.approx(bias_row.b0, rel=1e-12, abs=scale)


def _count_qr(monkeypatch) -> list:
    """Record each np.linalg.qr call from here on."""
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_one_factorisation_serves_the_fit_its_bias_and_its_variance(monkeypatch):
    spec, thetas, ps, w, y = _random_table(3, 500, seed=44)
    calls = _count_qr(monkeypatch)
    fit = fit_corrected(spec, ObservedDataset(y=y, w=w), thetas, ps)
    conditional_bias(fit, 0.5 + 0.2 * np.arange(spec.n_params))
    variance_report(fit, fit.sigma2_w)
    assert len(calls) == 1


def test_one_factorisation_per_design_shape_for_the_variance_curve(monkeypatch):
    # every n-prefix of every replicate of one shape is factored in one
    # stacked call; these 4 replicates fit in one batch and share a shape
    config = ScenarioConfig(distortion="medium", n_covariates=2, levels=(3, 2),
                            n_grid=(40, 100, 300), replicates=4, master_seed=5)
    shapes = {encode_cells(spec, w).design_star.shape
              for spec, _, _, _, w in map(partial(replicate_designs, config), range(4))}
    calls = _count_qr(monkeypatch)
    intercept_variance_curve(config, 0.5)
    assert len(calls) == len(shapes) == 1


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


def test_fit_names_the_column_of_a_covariate_that_repeats_another():
    spec = CategoricalSpec((3, 3))
    rng = np.random.default_rng(42)
    w1 = rng.integers(0, 3, 60)
    ds = ObservedDataset(y=rng.standard_normal(60), w=np.column_stack([w1, w1]))
    theta = scenario_theta("low", 3)
    with pytest.raises(RankDeficient) as exc:
        fit_corrected(spec, ds, [theta, theta], [np.ones(3) / 3] * 2)
    assert str(exc.value) == "design column 3 is collinear (covariate 1, level 0)"
    bundle = encode_dummy(spec, ds.w)
    with pytest.raises(RankDeficient) as by_row:
        ols_fit(bundle.design_star, ds.y, bundle.column_map)
    assert str(by_row.value) == str(exc.value)


def test_a_singular_mechanism_is_reported_ahead_of_a_collinear_design():
    # the correction reads the mechanism, so it is built before the fit; as
    # with a zero in p, what leaves the correction unidentified is named first
    spec = CategoricalSpec((2, 2))
    w1 = np.tile([0, 1], 20)
    ds = ObservedDataset(y=np.arange(40.0), w=np.column_stack([w1, w1]))
    never = np.array([[1.0, 0.0], [1.0, 0.0]])  # level 1 is never observed
    with pytest.raises(NonIdentifiable, match="^sigma_w is numerically singular$"):
        fit_corrected(spec, ds, [never, never], [U2, U2])
    with pytest.raises(RankDeficient, match=r"^design column 2 is collinear \(covariate 1, "
                                            r"level 0\)$"):
        fit_corrected(spec, ds, [LOW2, LOW2], [U2, U2])


def test_a_singular_theta_is_non_identifiable_whether_p_is_given_or_estimated():
    # the correction exists only for an invertible theta: one condition, one error
    spec = CategoricalSpec((2,))
    half = np.full((2, 2), 0.5)
    with pytest.raises(NonIdentifiable, match="^theta is numerically singular$"):
        estimate_marginal(half, U2)
    cells = encode_cells(spec, np.tile([0, 1], 20)[:, None])
    with pytest.raises(NonIdentifiable, match="^observed categories carry no information"):
        fit_cells(spec, cells, np.arange(40.0), [half], [U2])


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
    [fits] = fit_prefixes(cells.design_star[None], ys[None], ns, pi_cells[None], [blocks],
                          cells.inverse[None])
    refused = _assert_matches_one_design_path(design_star, ys, ns, pi, blocks, fits)
    assert {3, 5} <= refused and 80 not in refused
    counts = np.array([np.bincount(cells.inverse[:n], minlength=len(cells.counts)) for n in ns])
    np.testing.assert_array_equal(fits.counts, counts)
