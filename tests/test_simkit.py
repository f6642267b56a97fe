import numpy as np
import pytest

from miscorr.categorical import CategoricalSpec, ObservedDataset, encode_dummy
from miscorr.errors import (
    InsufficientRows,
    RankDeficient,
    UndefinedScenario,
    ValidationError,
)
from miscorr.estimators import fit_corrected
from miscorr.misclass import scenario_theta
from miscorr.simkit import (
    METHODS,
    EqpRecord,
    ScenarioConfig,
    TruthSpec,
    eqp,
    intercept_variance_curve,
    replicate_designs,
    replicate_response,
    run_grid,
    run_replicate,
    simulate_w,
    simulate_x,
    simulate_y,
)

LOW2 = scenario_theta("low", 2)


def test_truth_spec_values():
    truth = TruthSpec.default(3)
    np.testing.assert_allclose(truth.beta_star, [0.5, 0.7, 0.9, 1.1])


def test_truth_spec_rejects_zero_entries():
    with pytest.raises(ValidationError):
        TruthSpec(np.array([0.5, 0.0]))


def test_config_high_distortion_forces_four_levels():
    cfg = ScenarioConfig(distortion="high", n_covariates=2)
    assert cfg.levels == (4, 4)
    with pytest.raises(UndefinedScenario):
        ScenarioConfig(distortion="high", levels=(3,))


def test_config_high_distortion_restricts_sigmas():
    cfg = ScenarioConfig(distortion="high", sigma_list=(0.1, 0.2, 0.5, 1.0))
    assert cfg.sigma_list == (0.1, 1.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(distortion="high", sigma_list=(0.2, 0.5))


def test_simulate_x_degenerate_marginal():
    rng = np.random.default_rng(0)
    x = simulate_x([np.array([1.0, 0.0, 0.0])], 50, rng)
    assert np.all(x == 0)


def test_simulate_x_deterministic_stream():
    a = simulate_x([np.full(4, 0.25)], 100, np.random.default_rng(42))
    b = simulate_x([np.full(4, 0.25)], 100, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_simulate_x_frequencies():
    rng = np.random.default_rng(1)
    x = simulate_x([np.full(4, 0.25)], 100_000, rng)
    freq = np.bincount(x[:, 0], minlength=4) / 100_000
    np.testing.assert_allclose(freq, 0.25, atol=0.01)


def test_simulate_w_identity_theta():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 3, (200, 1))
    w = simulate_w(x, [np.eye(3)], np.random.default_rng(3))
    np.testing.assert_array_equal(w, x)


def test_simulate_w_misclassification_rate():
    x = np.zeros((100_000, 1), dtype=int)
    w = simulate_w(x, [LOW2], np.random.default_rng(4))
    rate = np.mean(w[:, 0] == 1)
    assert rate == pytest.approx(0.1, abs=0.005)


def test_simulate_w_deterministic_stream():
    x = np.random.default_rng(5).integers(0, 2, (100, 1))
    a = simulate_w(x, [LOW2], np.random.default_rng(6))
    b = simulate_w(x, [LOW2], np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)


def test_simulate_y_tiny_noise_limit():
    spec = CategoricalSpec((2,))
    x = np.array([[0], [1], [0]])
    design = encode_dummy(spec, x).design
    truth = TruthSpec.default(1)
    y = simulate_y(design, truth, 1e-12, np.random.default_rng(7))
    np.testing.assert_allclose(y, truth.beta_star[0] + design @ truth.beta_star[1:],
                               atol=1e-10)


def test_simulate_y_variance():
    design = np.zeros((100_000, 1))
    truth = TruthSpec.default(1)
    y = simulate_y(design, truth, 1.0, np.random.default_rng(8))
    assert np.var(y - 0.5) == pytest.approx(1.0, abs=0.02)


def test_eqp_exact_estimate_is_zero():
    truth = TruthSpec(np.array([0.5, 0.7]))
    assert eqp(truth.beta_star, truth) == 0.0


def test_eqp_hand_arithmetic():
    truth = TruthSpec(np.array([0.5, 0.7]))
    assert eqp(np.array([0.6, 0.7]), truth) == pytest.approx(0.01)
    assert eqp(np.array([0.5, 0.9]), truth) == pytest.approx(0.04 / 0.7 / 2)


def test_run_replicate_deterministic():
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=2, levels=None,
        n_grid=(80, 200), sigma_list=(0.2,), replicates=3, master_seed=10,
    )
    a = run_replicate(cfg, (200, 0.2), 1)
    b = run_replicate(cfg, (200, 0.2), 1)
    for method in METHODS:
        np.testing.assert_array_equal(a[method], b[method])


def test_nested_samples_are_prefixes():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(200, 500),
        sigma_list=(0.1,), replicates=1, master_seed=11,
    )
    _, _, _, x, w = replicate_designs(cfg, 0)
    assert x.shape[0] == 500
    # any truncation is a prefix by construction
    np.testing.assert_array_equal(w[:200], w[:500][:200])


def test_grid_cells_are_exact_prefix_fits():
    # K=3 random levels: at n=8 and n=12 some replicates have too few rows
    # or a level missing from the prefix, so the rank guard fires there
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=3, levels=None,
        n_grid=(8, 12, 50), sigma_list=(0.2, 1.0), replicates=6, master_seed=21,
    )
    failures = {}
    for rep in range(cfg.replicates):
        spec, thetas, ps, x, w = replicate_designs(cfg, rep)
        for sigma in cfg.sigma_list:
            y = replicate_response(cfg, rep, spec, x, sigma)
            for n in cfg.n_grid:
                try:
                    fresh = fit_corrected(
                        spec, ObservedDataset(y=y[:n], w=w[:n]), thetas, ps
                    )
                except (RankDeficient, InsufficientRows):
                    failures[(n, sigma)] = failures.get((n, sigma), 0) + 1
                    with pytest.raises(RankDeficient):
                        run_replicate(cfg, (n, sigma), rep)
                    continue
                est = run_replicate(cfg, (n, sigma), rep)
                for method, vec in zip(
                    METHODS, (fresh.naive.gamma_star, fresh.beta_c_star, fresh.beta_full)
                ):
                    assert np.array_equal(est[method], vec)
    assert failures.get((8, 0.2)) and failures.get((12, 0.2))
    assert (50, 0.2) not in failures
    for r in run_grid(cfg).records:
        assert r.failures == failures.get((r.n, r.sigma), 0)


def test_grid_eqp_matches_per_cell_fits():
    # run_grid fits every (n, sigma) cell of a replicate in one stacked
    # kernel; each cell must score what the one-design path scores
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=3, levels=None,
        n_grid=(8, 12, 50, 500), sigma_list=(0.2, 1.0), replicates=8, master_seed=22,
    )
    scores, failures = {}, {}
    for rep in range(cfg.replicates):
        truth = TruthSpec.default(replicate_designs(cfg, rep)[0].n_slopes)
        for sigma in cfg.sigma_list:
            for n in cfg.n_grid:
                try:
                    est = run_replicate(cfg, (n, sigma), rep)
                except RankDeficient:
                    failures[(n, sigma)] = failures.get((n, sigma), 0) + 1
                    continue
                for method in METHODS:
                    scores.setdefault((n, sigma, method), []).append(eqp(est[method], truth))
    assert failures.get((8, 0.2)) and (500, 0.2) not in failures
    for r in run_grid(cfg).records:
        vals = scores.get((r.n, r.sigma, r.method), [])
        assert r.failures == failures.get((r.n, r.sigma), 0)
        assert r.replicates == len(vals)
        if vals:
            assert r.eqp == pytest.approx(np.mean(vals), rel=1e-12, abs=0)
        else:
            assert np.isnan(r.eqp)


@pytest.mark.parametrize("levels, n_grid", [((2,), (1,)), (None, (5, 8))])
def test_run_grid_counts_grids_no_larger_than_the_design_as_failures(levels, n_grid):
    # K = 3 with random levels has up to 10 columns, so n = 8 fails whenever
    # a replicate draws more than 7 slopes
    k = 1 if levels else 3
    cfg = ScenarioConfig(
        distortion="low", n_covariates=k, levels=levels,
        n_grid=n_grid, sigma_list=(0.2, 1.0), replicates=6, master_seed=23,
    )
    failures, too_few_rows = {}, 0
    for rep in range(cfg.replicates):
        too_few_rows += max(n_grid) <= replicate_designs(cfg, rep)[0].n_params
        for n in n_grid:
            try:
                run_replicate(cfg, (n, 0.2), rep)
            except RankDeficient:
                failures[n] = failures.get(n, 0) + 1
    assert too_few_rows > 0
    for r in run_grid(cfg).records:
        assert r.failures == failures.get(r.n, 0)
        assert r.replicates == cfg.replicates - r.failures


def test_intercept_variance_curve_needs_two_replicates():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(50,), sigma_list=(0.2,), replicates=1,
    )
    with pytest.raises(ValidationError):
        intercept_variance_curve(cfg, 0.2)


def test_intercept_variance_curve_matches_per_cell_fits():
    # the curve fits every n-prefix of a replicate at once; its empirical
    # variance must be that of the one-design path's corrected intercept
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=2, levels=(3, 2),
        n_grid=(40, 100, 300), sigma_list=(0.5,), replicates=8, master_seed=5,
    )
    points = intercept_variance_curve(cfg, 0.5)
    assert [pt.n for pt in points] == list(cfg.n_grid)
    for pt in points:
        b0 = [run_replicate(cfg, (pt.n, 0.5), rep)["full"][0] for rep in range(cfg.replicates)]
        assert pt.empirical == pytest.approx(np.var(b0, ddof=1), rel=1e-12, abs=0)


def test_duplicate_n_values_are_dropped():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(50, 50, 100),
        sigma_list=(0.1,), replicates=2, master_seed=12,
    )
    assert cfg.n_grid == (50, 100)
    assert len(run_grid(cfg).records) == 2 * 3


@pytest.mark.parametrize("n_grid", [(-5, 100), (0, 100)])
def test_sample_sizes_below_one_are_rejected(n_grid):
    with pytest.raises(ValidationError):
        ScenarioConfig(distortion="low", levels=(2,), n_grid=n_grid, sigma_list=(0.1,))


@pytest.mark.parametrize(
    "sigmas", [(0.1, 0.1000004), (0.1, 0.1), (float("nan"),), (float("inf"),), (-0.5,)]
)
def test_sigmas_that_cannot_seed_their_own_y_stream_are_rejected(sigmas):
    # 0.1 and 0.1000004 map to one _sigma_key and would draw the same y
    with pytest.raises(ValidationError):
        ScenarioConfig(distortion="low", levels=(2,), sigma_list=sigmas)
    assert ScenarioConfig(distortion="low", sigma_list=(0.1, 0.100001)).sigma_list == (
        0.1,
        0.100001,
    )


def test_run_grid_record_cardinality():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,),
        n_grid=tuple(range(50, 501, 25)),
        sigma_list=(0.1, 0.2, 0.5, 1.0),
        replicates=2, master_seed=12,
    )
    table = run_grid(cfg)
    assert len(cfg.n_grid) == 19
    assert len(table.records) == 19 * 4 * 3 == 228


def test_run_grid_low_distortion_ordering():
    cfg = ScenarioConfig(
        distortion="low", n_covariates=3, levels=None,
        n_grid=(500,), sigma_list=(0.1,), replicates=100, master_seed=13,
    )
    table = run_grid(cfg, threads=4)
    by_method = {r.method: r.eqp for r in table.records}
    assert by_method["full"] < by_method["none"]
    assert by_method["full"] < by_method["partial"]


def test_run_grid_deterministic_across_thread_counts():
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=2, levels=None,
        n_grid=(60, 120), sigma_list=(0.1, 0.5), replicates=6, master_seed=14,
    )
    a = run_grid(cfg, threads=1).to_csv()
    b = run_grid(cfg, threads=8).to_csv()
    assert a == b


def test_full_correction_beats_none_usually():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(500,),
        sigma_list=(0.1,), replicates=100, master_seed=15,
    )
    wins = 0
    for rep in range(cfg.replicates):
        est = run_replicate(cfg, (500, 0.1), rep)
        truth = TruthSpec.default(1)
        if eqp(est["full"], truth) < eqp(est["none"], truth):
            wins += 1
    assert wins >= 90


def test_naive_slope_eqp_converges_to_attenuation_limit():
    # deterministic limit implied by the attenuated slope
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(500,),
        sigma_list=(0.1,), replicates=300, master_seed=16,
    )
    truth = TruthSpec.default(1)
    attn = 0.1875 / 0.249375
    limit = (truth.beta_star[1] - attn * truth.beta_star[1]) ** 2 / truth.beta_star[1]
    vals = []
    for rep in range(cfg.replicates):
        est = run_replicate(cfg, (500, 0.1), rep)
        vals.append((truth.beta_star[1] - est["none"][1]) ** 2 / truth.beta_star[1])
    assert np.mean(vals) == pytest.approx(limit, rel=0.2)


def test_eqp_record_shape():
    rec = EqpRecord("low", 1, "2", 50, 0.1, "full", 0.01, 0.001, 0, 5)
    assert rec.method == "full"
