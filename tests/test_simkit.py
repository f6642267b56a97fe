import dataclasses
import functools
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from miscorr import moments, simkit
from miscorr.categorical import CategoricalSpec, ObservedDataset, encode_dummy
from miscorr.errors import (
    RankDeficient,
    Renormalized,
    UndefinedScenario,
    ValidationError,
)
from miscorr.estimators import fit_corrected
from miscorr.misclass import SCENARIO_THETAS, posterior_rows, scenario_theta
from miscorr.simkit import (
    METHODS,
    EqpTable,
    ScenarioConfig,
    TruthSpec,
    eqp,
    intercept_variance_curve,
    replicate_designs,
    replicate_response,
    run_grid,
    simulate_w,
    simulate_x,
)

LOW2 = scenario_theta("low", 2)


def _cell_estimates(cfg, cell, rep):
    """Estimate vectors in METHODS order for one (n, sigma) cell of one
    replicate: fit_corrected on the first n rows of its designs and response."""
    n, sigma = cell
    spec, thetas, ps, x, w = replicate_designs(cfg, rep)
    y = replicate_response(cfg, rep, spec, x, sigma)
    fit = fit_corrected(spec, ObservedDataset(y=y[:n], w=w[:n]), thetas, ps)
    return dict(zip(METHODS, (fit.gamma_star[0, 0], fit.beta_c_star[0, 0], fit.beta_full[0, 0])))


def test_truth_spec_values():
    truth = TruthSpec.default(3)
    np.testing.assert_allclose(truth.beta_star, [0.5, 0.7, 0.9, 1.1])


def test_the_default_truth_is_one_read_only_truth_per_width():
    truth = TruthSpec.default(3)
    assert TruthSpec.default(3) is truth and TruthSpec.default(2) is not truth
    assert TruthSpec.default(2).beta_star.tolist() == [0.5, 0.7, 0.9]
    with pytest.raises(ValueError):
        truth.beta_star[0] = 1.0
    assert truth.beta_star[0] == 0.5


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


@pytest.mark.parametrize("theta", [[[0.5, 0.4], [0.15, 0.85]], [[1.2, -0.2], [0.15, 0.85]],
                                   [[0.9, 0.1, 0.0], [0.15, 0.85, 0.0]]],
                         ids=["sums_to_0.9", "negative", "not_square"])
def test_simulate_w_refuses_the_theta_that_check_theta_refuses(theta):
    # unchecked, the first row's uniforms above 0.9 drew category 2 of a 2-level covariate
    x = np.zeros((1000, 1), dtype=int)
    with pytest.raises(ValidationError):
        simulate_w(x, [theta], np.random.default_rng(4))


def test_simulate_w_draws_from_the_rows_check_theta_renormalizes():
    theta = [[0.5, 0.5 + 5e-10], [0.15, 0.85]]  # within RENORM_TOL, past SIMPLEX_TOL
    x = np.random.default_rng(3).integers(0, 2, (500, 1))
    with pytest.warns(Renormalized):
        drawn = simulate_w(x, [theta], np.random.default_rng(5))
    normalized = np.divide(theta, np.sum(theta, axis=1, keepdims=True))
    np.testing.assert_array_equal(drawn, simulate_w(x, [normalized], np.random.default_rng(5)))


@pytest.mark.parametrize("distortion, lk", sorted(SCENARIO_THETAS))
def test_simulate_w_draws_each_preset_theta_unchanged_by_its_check(distortion, lk):
    # medium L=3's first row sums to 0.9999999999999999, within the check's tolerance
    theta = scenario_theta(distortion, lk)
    x = np.random.default_rng(lk).integers(0, lk, (500, 1))
    ref = np.random.default_rng(5)
    expected = (ref.random(500)[:, None] > np.cumsum(theta, axis=1)[x[:, 0]]).sum(axis=1)
    np.testing.assert_array_equal(simulate_w(x, [theta], np.random.default_rng(5))[:, 0],
                                  expected)


def _uneven_structure(k, seed):
    """k (p, theta) pairs with L_k from 2 to 5, every p with a zero entry."""
    rng = np.random.default_rng(seed)
    ps, thetas = [], []
    for lk in rng.integers(2, 6, k):
        p = rng.random(lk)
        p[rng.integers(lk)] = 0.0
        ps.append(p / p.sum())
        thetas.append(rng.dirichlet(np.ones(lk), size=lk))
    return ps, thetas


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_x_and_w_are_numpys_per_covariate_draws_bit_for_bit(k):
    # the reference: one rng.choice, then one rng.random, per covariate in turn
    ps, thetas = _uneven_structure(k, seed=k)
    ref, new = np.random.default_rng(40 + k), np.random.default_rng(40 + k)
    x = np.column_stack([ref.choice(len(p), size=301, p=p) for p in ps])
    w = np.column_stack([(ref.random(301)[:, None] > np.cumsum(theta, axis=1)[x[:, j]]).sum(axis=1)
                         for j, theta in enumerate(thetas)])
    np.testing.assert_array_equal(simulate_x(ps, 301, new), x)
    np.testing.assert_array_equal(simulate_w(x, thetas, new), w)
    assert new.random() == ref.random()  # both consumed the same stream


@pytest.mark.parametrize("distortion, levels", [("low", (2, 3, 2)), ("medium", None),
                                                ("high", None)])
def test_replicate_designs_draw_what_simulate_x_and_w_draw_from_their_streams(distortion, levels):
    # the grid's cdf and cumulative theta tables are built once per level structure
    cfg = ScenarioConfig(distortion=distortion, n_covariates=3, levels=levels, replicates=6,
                         master_seed=9)
    stream = functools.partial(simkit._rng, cfg.master_seed)
    for rep in range(cfg.replicates):
        spec, thetas, ps, x, w = replicate_designs(cfg, rep)
        np.testing.assert_array_equal(x, simulate_x(ps, cfg.n_gen, stream(simkit._STREAM_X, rep)))
        np.testing.assert_array_equal(w, simulate_w(x, thetas, stream(simkit._STREAM_W, rep)))


@pytest.mark.parametrize("p", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [0.3, 0.3, 0.3]],
                         ids=["negative", "nan", "sums to 0.9"])
def test_simulate_x_refuses_the_p_that_choice_refuses(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, size=5, p=p)
    with pytest.raises(ValueError):
        simulate_x([[0.5, 0.5], p], 5, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1, 2**64 + 3, -7])
@pytest.mark.parametrize("key", [(), (0,), (2, 0), (4, 3, 200_000), (4, 1, 2**40)])
def test_replicate_streams_are_default_rng_of_the_masked_seed_and_key(seed, key):
    expected = np.random.default_rng([seed & (2**64 - 1), *key]).integers(0, 2**63, 4)
    np.testing.assert_array_equal(simkit._rng(seed, *key).integers(0, 2**63, 4), expected)


def _response(design, truth, sigma, rng):
    """y = beta0 + design . beta + noise, noise iid normal(0, sigma^2)."""
    return truth.beta_star[0] + design @ truth.beta_star[1:] + sigma * rng.standard_normal(
        len(design))


def test_replicate_responses_are_the_mean_plus_sigma_times_each_sigma_stream_bit_for_bit():
    cfg = ScenarioConfig(distortion="medium", n_covariates=3, replicates=4, master_seed=7,
                         sigma_list=(0.1, 0.2, 0.5, 1.0))
    for rep in range(cfg.replicates):
        spec, _, _, x, _ = replicate_designs(cfg, rep)
        design = np.ascontiguousarray(encode_dummy(spec, x).design)
        expected = np.column_stack([
            _response(design, TruthSpec.default(spec.n_slopes), sigma,
                      simkit._rng(7, simkit._STREAM_Y, rep, simkit._sigma_key(sigma)))
            for sigma in cfg.sigma_list])
        for layout in (x, np.asfortranarray(x)):
            ys = simkit.replicate_responses(cfg, rep, spec, layout, cfg.sigma_list)
            np.testing.assert_array_equal(ys, expected)


def test_replicate_structures_share_read_only_theta_and_p():
    cfg = ScenarioConfig(distortion="low", n_covariates=3, levels=(2, 3, 2), replicates=2)
    (_, thetas, ps), (_, thetas2, ps2) = (
        simkit._replicate_structure(cfg, rep)[:3] for rep in range(2))
    assert thetas[0] is thetas2[0] is thetas[2] and ps[1] is ps2[1]
    np.testing.assert_array_equal(thetas[1], scenario_theta("low", 3))
    with pytest.raises(ValueError):
        thetas[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        ps[1][0] = 1.0


def test_replicate_responses_tiny_noise_limit():
    cfg = ScenarioConfig(distortion="low", levels=(2,), replicates=1, master_seed=7)
    spec = CategoricalSpec((2,))
    x = np.array([[0], [1], [0]])
    design = encode_dummy(spec, x).design
    truth = TruthSpec.default(1)
    y = simkit.replicate_responses(cfg, 0, spec, x, (1e-12,))[:, 0]
    np.testing.assert_allclose(y, truth.beta_star[0] + design @ truth.beta_star[1:],
                               atol=1e-10)


def test_replicate_responses_variance():
    cfg = ScenarioConfig(distortion="low", levels=(2,), replicates=1, master_seed=8)
    spec = CategoricalSpec((2,))
    x = np.ones((100_000, 1), dtype=int)  # the reference level: the mean is beta0
    y = simkit.replicate_responses(cfg, 0, spec, x, (1.0,))[:, 0]
    assert np.var(y - 0.5) == pytest.approx(1.0, abs=0.02)


def test_eqp_exact_estimate_is_zero():
    truth = TruthSpec(np.array([0.5, 0.7]))
    assert eqp(truth.beta_star, truth) == 0.0


def test_eqp_hand_arithmetic():
    truth = TruthSpec(np.array([0.5, 0.7]))
    assert eqp(np.array([0.6, 0.7]), truth) == pytest.approx(0.01)
    assert eqp(np.array([0.5, 0.9]), truth) == pytest.approx(0.04 / 0.7 / 2)


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
                # the replicate drawn afresh gives the same refusal or fit bit for bit
                try:
                    fresh = fit_corrected(
                        spec, ObservedDataset(y=y[:n], w=w[:n]), thetas, ps
                    )
                except RankDeficient:
                    failures[(n, sigma)] = failures.get((n, sigma), 0) + 1
                    with pytest.raises(RankDeficient):
                        _cell_estimates(cfg, (n, sigma), rep)
                    continue
                est = _cell_estimates(cfg, (n, sigma), rep)
                for method, vec in zip(
                    METHODS,
                    (fresh.gamma_star[0, 0], fresh.beta_c_star[0, 0], fresh.beta_full[0, 0]),
                ):
                    assert np.array_equal(est[method], vec)
    assert failures.get((8, 0.2)) and failures.get((12, 0.2))
    assert (50, 0.2) not in failures
    table = run_grid(cfg)
    for i, n in enumerate(cfg.n_grid):
        for sigma in cfg.sigma_list:
            assert table.failures[i] == failures.get((n, sigma), 0)


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
                    est = _cell_estimates(cfg, (n, sigma), rep)
                except RankDeficient:
                    failures[(n, sigma)] = failures.get((n, sigma), 0) + 1
                    continue
                for method in METHODS:
                    scores.setdefault((n, sigma, method), []).append(eqp(est[method], truth))
    assert failures.get((8, 0.2)) and (500, 0.2) not in failures
    table = run_grid(cfg)
    for (i, n), (s, sigma), (j, method) in itertools.product(
            enumerate(cfg.n_grid), enumerate(cfg.sigma_list), enumerate(METHODS)):
        vals = scores.get((n, sigma, method), [])
        assert table.failures[i] == failures.get((n, sigma), 0)
        assert cfg.replicates - table.failures[i] == len(vals)
        if vals:
            assert table.eqp[i, s, j] == pytest.approx(np.mean(vals), rel=1e-12, abs=0)
        else:
            assert np.isnan(table.eqp[i, s, j])


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
                _cell_estimates(cfg, (n, 0.2), rep)
            except RankDeficient:
                failures[n] = failures.get(n, 0) + 1
    assert too_few_rows > 0
    table = run_grid(cfg)
    for i, n in enumerate(n_grid):
        assert table.failures[i] == failures.get(n, 0)


@pytest.mark.parametrize("curve", [False, True])
def test_each_covariate_part_of_the_mechanism_is_built_once_per_level_count(monkeypatch, curve):
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=2 if curve else 3, levels=None,
        n_grid=(60, 200) if curve else (8, 50), sigma_list=(0.2, 1.0), replicates=24,
        master_seed=7,
    )
    built = []
    covariate = moments._covariate

    def counted(k, lk, theta, p):
        built.append(lk)
        return covariate(k, lk, theta, p)

    for module in (moments, simkit):  # simkit's presets build theirs through its own name
        monkeypatch.setattr(module, "_covariate", counted)
    simkit._preset.cache_clear()  # an earlier test may have built the parts
    simkit._structure.cache_clear()
    runs = []
    for _ in range(2):
        intercept_variance_curve(cfg, 0.2) if curve else run_grid(cfg)
        runs.append(sorted(built))
        built.clear()
    structures = {simkit._replicate_structure(cfg, rep).spec.levels
                  for rep in range(cfg.replicates)}
    # the first run builds each L_k part once, every one of them in use; the second none
    assert runs == [sorted({lk for levels in structures for lk in levels}), []] == [[2, 3, 4], []]
    assert len(structures) > 3


def test_a_cold_build_of_the_presets_checks_each_theta_and_p_once(monkeypatch):
    checks = []
    for module in (moments, simkit):  # each module checks through its own names
        for name in ("check_theta", "check_marginal"):
            check = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda a, check=check: checks.append(check.__name__) or check(a))
    simkit._preset.cache_clear()  # an earlier test may have built the presets
    simkit._structure.cache_clear()
    for lk in (2, 3, 4):
        simkit._preset("medium", lk)
    simkit._preset.cache_clear()  # leave no preset built through the counters
    assert sorted(checks) == ["check_marginal"] * 3 + ["check_theta"] * 3


def test_the_shared_presets_are_read_only_and_each_replicate_gets_their_parts():
    cfg = ScenarioConfig(distortion="low", levels=(3,), n_grid=(50,), replicates=2)
    for lk in (2, 3, 4):
        preset = simkit._preset("low", lk)
        theta, p, cdf, cums, (*arrays, posterior) = preset
        for array in (theta, p, cdf, cums, *arrays, posterior.pi, posterior.q):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
        with pytest.raises(TypeError):
            preset[0] = theta
    for _, _, posteriors, _ in simkit._replicate_fits(cfg, (0.2,)):
        assert posteriors[0] is simkit._preset("low", 3)[-1][-1]


def test_each_level_structure_is_built_once_read_only_and_shared_by_its_replicates():
    cfg = ScenarioConfig(distortion="medium", n_covariates=2, levels=None, n_grid=(40, 80),
                         sigma_list=(0.2,), replicates=12, master_seed=5)
    structures = functools.partial(simkit._structure, "medium")
    fitted = list(simkit._replicate_fits(cfg, cfg.sigma_list))
    for rep, (spec, cells, posteriors, fits) in enumerate(fitted):
        structure = structures(spec.levels)
        assert simkit._replicate_structure(cfg, rep) is structure
        assert posteriors is structure.posteriors and fits.blocks is structure.blocks
        np.testing.assert_array_equal(fits.pi_rows, posterior_rows(posteriors, cells.categories),
                                      strict=True)
        blocks = structure.blocks
        for array in (structure.cdfs, structure.cums, *structure.thetas,
                      *structure.ps, blocks.sigma_w, blocks.sigma_wx, blocks.correction,
                      blocks.pi_ref):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
    assert len({spec.levels for spec, *_ in fitted}) < cfg.replicates


def test_a_run_after_the_caches_are_cleared_equals_a_warm_run_bit_for_bit():
    # K=10 random levels: nearly every replicate has a level tuple of its own
    for k, n_grid, curve_n in ((3, (8, 50, 200), (50, 200)), (10, (12, 40, 80), (80, 160))):
        cfg = ScenarioConfig(distortion="medium", n_covariates=k, levels=None, n_grid=n_grid,
                             sigma_list=(0.2, 1.0), replicates=10, master_seed=9)
        curve_cfg = dataclasses.replace(cfg, n_grid=curve_n)
        runs = []
        for cold in (True, False):
            if cold:  # the layouts go with the specs of the structures
                simkit._preset.cache_clear()
                simkit._structure.cache_clear()
            table = run_grid(cfg)
            runs.append((table.eqp.tobytes(), table.mcse.tobytes(), table.failures.tolist(),
                         intercept_variance_curve(curve_cfg, 0.2)))
        assert runs[0] == runs[1]
        assert 0 < runs[0][2][0]  # the smallest n is refused in some replicates


def test_a_grid_of_many_level_tuples_keeps_at_most_the_cache_bounds():
    cfg = ScenarioConfig(distortion="medium", n_covariates=10, levels=None, n_grid=(40,),
                         sigma_list=(0.2,), replicates=simkit.STRUCTURE_CACHE_SIZE + 12,
                         master_seed=5)
    simkit._preset.cache_clear()
    simkit._structure.cache_clear()
    run_grid(cfg)
    structures = simkit._structure.cache_info()
    assert structures.misses > structures.maxsize == simkit.STRUCTURE_CACHE_SIZE
    assert structures.currsize == simkit.STRUCTURE_CACHE_SIZE
    assert simkit._preset.cache_info().currsize == 3  # one per L_k of the medium presets


@pytest.mark.parametrize("curve", [False, True])
def test_a_replicate_larger_than_physical_memory_is_refused_before_drawing(monkeypatch, curve):
    cfg = ScenarioConfig(distortion="low", n_covariates=2, levels=(2, 3), n_grid=(40,),
                         sigma_list=(0.2, 1.0), replicates=2)
    need = simkit._replicate_bytes(cfg, (0.2,) if curve else cfg.sigma_list)

    def drawn(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(simkit, "_rng", drawn)
    for memory, refused in ((need - 1, MemoryError), (need, AssertionError)):
        monkeypatch.setattr(simkit, "_physical_memory", lambda: memory)
        with pytest.raises(refused, match=f"{need} bytes" if refused is MemoryError else "drawn"):
            intercept_variance_curve(cfg, 0.2) if curve else run_grid(cfg)


@pytest.mark.parametrize("k, sigmas", [(1, (0.2,)), (1, (0.1, 0.2, 0.5, 1.0)), (3, (0.2,)),
                                       (3, (0.1, 0.2, 0.5, 1.0)), (5, (0.2, 1.0)), (10, (0.2,))])
def test_the_counted_bytes_of_a_replicate_bound_what_the_grid_allocates(k, sigmas):
    # levels of 2 hold as many rows per draw-table column as levels of 4; 3 replicates
    # of 30,000 rows pass the batch budget, so replicates are held and fitted in turn
    cfg = ScenarioConfig(distortion="low", n_covariates=k, levels=(2,) * (k - 1) + (4,),
                         n_grid=(10_000, 30_000), sigma_list=sigmas, replicates=3)
    if k == 10:  # random levels: nearly every row is a cell, and the fits' QR stacks peak
        cfg = ScenarioConfig(distortion="medium", n_covariates=k, n_grid=(5_000, 10_000, 20_000),
                             sigma_list=sigmas, replicates=3)
    list(simkit._replicate_fits(dataclasses.replace(cfg, replicates=1), sigmas))  # the caches
    tracemalloc.start()
    try:
        for _ in simkit._replicate_fits(cfg, sigmas):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = simkit._replicate_bytes(cfg, sigmas)
    assert need / 2 < peak <= need


@pytest.fixture
def cgroup_files(monkeypatch):
    """Serve simkit's reads of the cgroup tree from a dict of path -> text
    (a missing path is a missing file), with the cached limit cleared."""
    files = {}
    monkeypatch.setattr(simkit, "_read_text", files.get)
    simkit._cgroup_limit.cache_clear()
    yield files
    simkit._cgroup_limit.cache_clear()


@pytest.mark.parametrize("files, limit", [
    ({}, None),  # no /proc/self/cgroup: not Linux
    ({"/proc/self/cgroup": "0::/\n"}, None),  # no memory.max at the root
    ({"/proc/self/cgroup": "0::/a/b\n", "/sys/fs/cgroup/a/b/memory.max": "max\n"}, None),
    ({"/proc/self/cgroup": "0::/a/b\n", "/sys/fs/cgroup/a/b/memory.max": "max\n",
      "/sys/fs/cgroup/a/memory.max": "1048576\n"}, 1048576),  # an ancestor's limit holds
    ({"/proc/self/cgroup": "5:cpu:/x\n4:memory,blkio:/x\n0::/\n",
      "/sys/fs/cgroup/cpu/x/memory.limit_in_bytes": "1",
      "/sys/fs/cgroup/memory/x/memory.limit_in_bytes": "2097152\n",
      "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n"}, 2097152),
])
def test_the_cgroup_limit_is_the_smallest_memory_limit_over_the_processs_cgroups(
        cgroup_files, files, limit):
    cgroup_files.update(files)
    assert simkit._cgroup_limit() == limit


def test_a_replicate_larger_than_the_cgroup_limit_is_refused_before_drawing(
        monkeypatch, cgroup_files):
    cfg = ScenarioConfig(distortion="low", levels=(2,), n_grid=(40,), replicates=2)
    need = simkit._replicate_bytes(cfg, cfg.sigma_list)
    monkeypatch.setattr(simkit, "_physical_memory", lambda: 2 * need)
    cgroup_files.update({"/proc/self/cgroup": "0::/job\n",
                         "/sys/fs/cgroup/job/memory.max": f"{need - 1}\n"})
    with pytest.raises(MemoryError, match=f"more than the {need - 1} bytes of the cgroup's"):
        run_grid(cfg)
    simkit._cgroup_limit.cache_clear()
    cgroup_files["/sys/fs/cgroup/job/memory.max"] = f"{3 * need}\n"  # physical memory is less
    monkeypatch.setattr(simkit, "_physical_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"more than the {need - 1} bytes of physical memory"):
        run_grid(cfg)
    monkeypatch.setattr(simkit, "_physical_memory", lambda: need)
    assert run_grid(cfg).eqp.shape == (1, len(cfg.sigma_list), len(METHODS))


def test_a_platform_that_gives_no_memory_size_refuses_no_grid(monkeypatch):
    monkeypatch.delattr(os, "sysconf")
    assert simkit._physical_memory() is None
    cfg = ScenarioConfig(distortion="low", levels=(2,), n_grid=(40,), replicates=2)
    assert run_grid(cfg).eqp.shape == (1, len(cfg.sigma_list), len(METHODS))
    monkeypatch.undo()
    monkeypatch.setattr(os, "sysconf", lambda name: -1)  # a size the system cannot tell
    assert simkit._physical_memory() is None


def test_grid_eqp_and_mcse_are_the_1d_reductions_of_the_surviving_replicates():
    # K=3 random levels: n=8 is refused in some replicates but not all
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=3, levels=None,
        n_grid=(8, 12, 50), sigma_list=(0.2, 1.0), replicates=12, master_seed=21,
    )
    per_rep = [
        (eqp(np.stack([f.gamma_star, f.beta_c_star, f.beta_full], axis=2),
             TruthSpec.default(spec.n_slopes)), f.refused)
        for spec, _, _, f in simkit._replicate_fits(cfg, cfg.sigma_list)
    ]
    table = run_grid(cfg)
    for s in range(len(cfg.sigma_list)):
        for i in range(len(cfg.n_grid)):
            for j in range(len(METHODS)):
                vals = np.array([e[i, s, j] for e, refused in per_rep if not refused[i]])
                assert cfg.replicates - table.failures[i] == len(vals)
                assert table.eqp[i, s, j] == np.mean(vals)
                assert table.mcse[i, s, j] == np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert 0 < table.failures[0] < cfg.replicates


def test_stacked_fits_are_bit_for_bit_the_fits_of_each_replicate_alone(monkeypatch):
    # a small budget splits the run into batches of a few replicates, and
    # random levels give each batch several design shapes
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=3, levels=None,
        n_grid=(8, 12, 50, 200), sigma_list=(0.2, 1.0), replicates=16, master_seed=21,
    )
    batches, stacks = [], []
    fit_batch, fit_prefixes = simkit._fit_batch, simkit.fit_prefixes
    monkeypatch.setattr(simkit, "QR_STACK_BUDGET", 6000)
    monkeypatch.setattr(simkit, "_fit_batch",
                        lambda ns, held: batches.append(len(held)) or fit_batch(ns, held))
    monkeypatch.setattr(simkit, "fit_prefixes",
                        lambda *args: stacks.append(len(args[0])) or fit_prefixes(*args))
    for rep, (spec, cells, posteriors, fits) in enumerate(
            simkit._replicate_fits(cfg, cfg.sigma_list)):
        _, thetas, ps, x, _ = replicate_designs(cfg, rep)
        ys = simkit.replicate_responses(cfg, rep, spec, x, cfg.sigma_list)
        [alone] = fit_prefixes(cells.design_star[None], ys[None], cfg.n_grid,
                               posterior_rows(posteriors, cells.categories)[None],
                               [moments.mechanism(spec, thetas, ps)[0]], cells.inverse[None])
        for field in dataclasses.fields(fits):
            if field.name != "blocks":
                np.testing.assert_array_equal(getattr(fits, field.name),
                                              getattr(alone, field.name), strict=True)
        for field in dataclasses.fields(fits.blocks):
            np.testing.assert_array_equal(getattr(fits.blocks, field.name),
                                          getattr(alone.blocks, field.name), strict=True)
    assert rep + 1 == sum(batches) == cfg.replicates
    assert len(batches) > 2 and max(stacks) > 1 and len(stacks) > len(batches)


def test_a_large_n_grid_splits_into_batches_that_hold_their_rows_within_the_budget(monkeypatch):
    # K=1 has a tiny QR stack, so the held responses and cell indices are
    # what the budget must bound
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=1, levels=(2,), n_grid=(40_000,),
        sigma_list=(0.2, 1.0), replicates=5, master_seed=4,
    )
    batches = []
    fit_batch = simkit._fit_batch
    monkeypatch.setattr(simkit, "_fit_batch", lambda ns, held: batches.append(
        sum(ys.size + cells.inverse.size for _, cells, *_, ys in held)) or fit_batch(ns, held))
    assert len(list(simkit._replicate_fits(cfg, cfg.sigma_list))) == cfg.replicates
    assert len(batches) == 3 and max(batches) <= simkit.QR_STACK_BUDGET

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
        b0 = [_cell_estimates(cfg, (pt.n, 0.5), rep)["full"][0] for rep in range(cfg.replicates)]
        assert pt.empirical == pytest.approx(np.var(b0, ddof=1), rel=1e-12, abs=0)


def test_duplicate_n_values_are_dropped():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(50, 50, 100),
        sigma_list=(0.1,), replicates=2, master_seed=12,
    )
    assert cfg.n_grid == (50, 100)
    table = run_grid(cfg)
    assert table.eqp.shape == table.mcse.shape == (2, 1, 3)
    assert len(table.to_csv().splitlines()) == 1 + 2 * 3


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


def test_a_sigma_too_large_to_key_its_y_stream_is_refused_by_name():
    # sigma * 1e6 overflows to inf, which no integer stream key can hold
    with pytest.raises(ValidationError, match=r"sigma 1e\+308 is too large"):
        ScenarioConfig(distortion="low", levels=(2,), sigma_list=(1e308,))
    config = ScenarioConfig(distortion="low", levels=(2,), n_grid=(40,), replicates=2)
    with pytest.raises(ValidationError, match=r"sigma 1e\+303 is too large"):
        intercept_variance_curve(config, 1e303)


def test_the_variance_curve_refuses_an_unkeyable_sigma_before_drawing(monkeypatch):
    def drawn(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(simkit, "replicate_designs", drawn)
    config = ScenarioConfig(distortion="low", levels=(2,), n_grid=(40,), replicates=2)
    with pytest.raises(ValidationError, match=r"sigma 1e\+303 is too large"):
        intercept_variance_curve(config, 1e303)


def test_run_grid_record_cardinality():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,),
        n_grid=tuple(range(50, 501, 25)),
        sigma_list=(0.1, 0.2, 0.5, 1.0),
        replicates=2, master_seed=12,
    )
    table = run_grid(cfg)
    assert len(cfg.n_grid) == 19
    assert table.eqp.shape == table.mcse.shape == (19, 4, 3)
    assert len(table.to_csv().splitlines()) == 1 + 19 * 4 * 3 == 229


def test_run_grid_low_distortion_ordering():
    cfg = ScenarioConfig(
        distortion="low", n_covariates=3, levels=None,
        n_grid=(500,), sigma_list=(0.1,), replicates=100, master_seed=13,
    )
    table = run_grid(cfg)
    by_method = dict(zip(METHODS, table.eqp[0, 0]))
    assert by_method["full"] < by_method["none"]
    assert by_method["full"] < by_method["partial"]


def test_run_grid_deterministic_across_reruns():
    cfg = ScenarioConfig(
        distortion="medium", n_covariates=2, levels=None,
        n_grid=(60, 120), sigma_list=(0.1, 0.5), replicates=6, master_seed=14,
    )
    a = run_grid(cfg).to_csv()
    b = run_grid(cfg).to_csv()
    assert a == b


def test_full_correction_beats_none_usually():
    cfg = ScenarioConfig(
        distortion="low", levels=(2,), n_grid=(500,),
        sigma_list=(0.1,), replicates=100, master_seed=15,
    )
    wins = 0
    for rep in range(cfg.replicates):
        est = _cell_estimates(cfg, (500, 0.1), rep)
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
        est = _cell_estimates(cfg, (500, 0.1), rep)
        vals.append((truth.beta_star[1] - est["none"][1]) ** 2 / truth.beta_star[1])
    assert np.mean(vals) == pytest.approx(limit, rel=0.2)


# K=3 random levels have 4 to 10 parameters: n=4 is refused in every replicate, n=8 in some
REFUSED_ROWS = ScenarioConfig(distortion="medium", n_covariates=3, levels=None, n_grid=(4, 8, 50),
                              sigma_list=(0.2, 1.0), replicates=12, master_seed=21)


def _rows_as_built(config, table):
    """The fields of each cell's row as run_grid built them cell by cell
    before its table held arrays."""
    levels = "random" if config.levels is None else "-".join(map(str, config.levels))
    return [
        (config.distortion, config.n_covariates, levels, n, sigma, method,
         float(table.eqp[i, s, j]), float(table.mcse[i, s, j]), int(table.failures[i]),
         config.replicates - int(table.failures[i]))
        for s, sigma in enumerate(config.sigma_list)
        for i, n in enumerate(config.n_grid)
        for j, method in enumerate(METHODS)
    ]


def _csv_as_written(rows):
    """EqpTable.to_csv as it wrote its cells one by one."""
    lines = [EqpTable.HEADER]
    for distortion, k, levels, n, sigma, method, value, mcse, failures, replicates in rows:
        lines.append(f"{distortion},{k},{levels},{n},{sigma:.17g},{method},{value:.17g},"
                     f"{mcse:.17g},{failures},{replicates}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cfg", [REFUSED_ROWS, ScenarioConfig(
    distortion="low", n_covariates=2, levels=(2, 3), n_grid=(50, 100), sigma_list=(0.1,),
    replicates=1, master_seed=4)])
def test_the_table_writes_the_csv_and_records_it_wrote_cell_by_cell(cfg):
    table = run_grid(cfg)
    if cfg is REFUSED_ROWS:
        assert table.failures[0] == cfg.replicates and 0 < table.failures[1] < cfg.replicates
        assert np.isnan(table.eqp[0]).all() and np.isfinite(table.eqp[1:]).all()
    assert table.to_csv() == _csv_as_written(_rows_as_built(cfg, table))


def test_tables_are_equal_by_config_and_values_and_have_no_hash():
    table = run_grid(REFUSED_ROWS)
    again = run_grid(REFUSED_ROWS)
    assert table == again and not table != again  # its n=4 cells are NaN in both
    assert table != run_grid(dataclasses.replace(REFUSED_ROWS, master_seed=22))
    assert table != dataclasses.replace(again, config=dataclasses.replace(REFUSED_ROWS,
                                                                          replicates=13))
    for field in ("eqp", "mcse", "failures"):
        moved = dataclasses.replace(again, **{field: getattr(again, field).copy()})
        cell = getattr(moved, field).reshape(-1)
        cell[-1] = cell[-1] + 1 if field == "failures" else np.nextafter(cell[-1], 1)
        assert table != moved
    assert table != table.to_csv()
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)
