"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real terminal (pytest capture is
bypassed) and then asserts, so the suite doubles as a readable report.
Criterion 6 has two parts: the corrected-slope variances (6a) and the
corrected-intercept variance (6b), each against the Monte Carlo variance over
a fixed observed design.
"""

import numpy as np

from miscorr.categorical import CategoricalSpec, ObservedDataset, encode_dummy
from miscorr.diagnostics import (
    conditional_bias,
    conditional_response_variance,
    variance_report,
)
from miscorr.estimators import fit_corrected
from miscorr.misclass import (
    SCENARIO_THETAS,
    posterior_from,
    posterior_rows,
    scenario_theta,
)
from miscorr.moments import mechanism
from miscorr.simkit import (
    METHODS,
    ScenarioConfig,
    TruthSpec,
    intercept_variance_curve,
    run_grid,
    simulate_w,
    simulate_x,
)

LOW2 = scenario_theta("low", 2)
U2 = np.full(2, 0.5)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_identity_neutrality(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 4))
        levels = tuple(int(v) for v in rng.integers(2, 5, size=k))
        spec = CategoricalSpec(levels)
        w = np.column_stack([rng.integers(0, lk, 200) for lk in levels])
        y = rng.standard_normal(200)
        thetas = [np.eye(lk) for lk in levels]
        ps = [np.full(lk, 1.0 / lk) for lk in levels]
        fit = fit_corrected(spec, ObservedDataset(y=y, w=w), thetas, ps)
        worst = max(
            worst,
            float(np.max(np.abs(fit.beta_c[0, 0] - fit.gamma_star[0, 0, 1:]))),
            abs(fit.beta0_c[0, 0] - fit.gamma_star[0, 0, 0]),
        )
    ok = worst < 1e-10
    _report(capsys, 1, ok, f"identity-theta neutrality, max deviation {worst:.2e}")
    assert ok


def test_criterion_2_binary_correction_oracle(capsys):
    blocks = mechanism(CategoricalSpec((2,)), [LOW2], [U2])[0]
    target = 0.249375 / 0.1875
    err = abs(blocks.correction[0, 0] - target)
    ok = blocks.correction.shape == (1, 1) and err < 1e-12
    _report(capsys, 2, ok, f"binary correction factor vs 1.33, error {err:.2e}")
    assert ok


def test_criterion_3_naive_limit(capsys):
    spec = CategoricalSpec((3,))
    theta = scenario_theta("medium", 3)
    p = np.ones(3) / 3
    truth = TruthSpec(np.array([0.5, 0.7, 0.9]))
    rng = np.random.default_rng(303)
    n = 200_000
    x = simulate_x([p], n, rng)
    w = simulate_w(x, [theta], rng)
    y = (
        truth.beta_star[0]
        + encode_dummy(spec, x).design @ truth.beta_star[1:]
        + 0.2 * rng.standard_normal(n)
    )
    fit = fit_corrected(spec, ObservedDataset(y=y, w=w), [theta], [p])
    gamma_err = float(np.max(np.abs(fit.gamma_star[0, 0, 1:] - [0.44211, 0.48422])))
    beta_err = float(np.max(np.abs(fit.beta_c[0, 0] - [0.7, 0.9])))
    ok = gamma_err < 0.01 and beta_err < 0.02
    _report(
        capsys, 3, ok,
        f"naive limit (gamma err {gamma_err:.4f}) and corrected slopes "
        f"(err {beta_err:.4f})",
    )
    assert ok


def test_criterion_4_moment_monte_carlo(capsys):
    rng = np.random.default_rng(404)
    n = 100_000
    worst = 0.0
    for (_, lk), rows in sorted(SCENARIO_THETAS.items()):
        theta = np.array(rows)
        p = np.full(lk, 1.0 / lk)
        spec = CategoricalSpec((lk,))
        blocks = mechanism(spec, [theta], [p])[0]
        x = simulate_x([p], n, rng)
        w = simulate_w(x, [theta], rng)
        dx = encode_dummy(spec, x).design
        dw = encode_dummy(spec, w).design
        dwc = dw - dw.mean(axis=0)
        dxc = dx - dx.mean(axis=0)
        worst = max(
            worst,
            float(np.max(np.abs(dwc.T @ dwc / (n - 1) - blocks.sigma_w))),
            float(np.max(np.abs(dwc.T @ dxc / (n - 1) - blocks.sigma_wx))),
        )
    ok = worst < 0.01
    _report(capsys, 4, ok, f"moment matrices vs sampling, max error {worst:.4f}")
    assert ok


def _fit_of_design(w):
    """fit_corrected on the fixed design.  The conditional bias and variance
    read the design only, so the response is zero."""
    spec = CategoricalSpec((2,))
    return fit_corrected(spec, ObservedDataset(y=np.zeros(len(w)), w=w), [LOW2], [U2])


def _fixed_w_monte_carlo(n, sigma, reps, seed):
    """Fixed-W resampling: redraw X | W from the posterior, then Y | X."""
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 2, (n, 1))
    bundle = encode_dummy(CategoricalSpec((2,)), w)
    blocks = mechanism(CategoricalSpec((2,)), [LOW2], [U2])[0]
    post = posterior_from(LOW2, U2)
    pi = posterior_rows([post], w)
    beta_star = np.array([0.5, 0.7])
    p_x0 = post.pi[w[:, 0], 0]
    est = np.zeros((reps, 2))
    b0 = np.zeros(reps)
    for r in range(reps):
        x = (rng.random(n) > p_x0).astype(int)
        y = beta_star[0] + beta_star[1] * (x == 0) + sigma * rng.standard_normal(n)
        gamma, *_ = np.linalg.lstsq(bundle.design_star, y, rcond=None)
        beta_c = blocks.correction @ gamma[1:]
        est[r] = [gamma[0], beta_c[0]]
        b0[r] = np.mean(y - pi @ beta_c)
    return w, bundle, blocks, post, pi, beta_star, est, b0


def test_criterion_5_bias_formula_vs_simulation(capsys):
    w, bundle, blocks, post, pi, beta_star, est, b0 = _fixed_w_monte_carlo(
        200, 0.2, 2000, 505
    )
    report = conditional_bias(_fit_of_design(w), beta_star)
    emp_bias = est.mean(axis=0) - beta_star
    mcse = est.std(axis=0, ddof=1) / np.sqrt(len(est))
    z_scores = np.abs(emp_bias - report.b_star) / mcse
    emp_b0 = b0.mean() - beta_star[0]
    z0 = abs(emp_b0 - report.b0) / (b0.std(ddof=1) / np.sqrt(len(b0)))
    ok = bool(np.all(z_scores < 3) and z0 < 3)
    _report(
        capsys, 5, ok,
        f"conditional bias vs Monte Carlo, |z| = {np.max(z_scores):.2f} "
        f"(slopes), {z0:.2f} (intercept)",
    )
    assert ok


def _criterion_6_setup():
    w, bundle, blocks, post, pi, beta_star, est, b0 = _fixed_w_monte_carlo(
        300, 0.2, 4000, 606
    )
    sigma2 = float(
        conditional_response_variance([post], w, beta_star[1:], 0.2).mean()
    )
    report = variance_report(_fit_of_design(w), sigma2)
    return report, est, b0


def test_criterion_6a_corrected_slope_variance(capsys):
    report, est, _ = _criterion_6_setup()
    emp = est.var(axis=0, ddof=1)
    theo = np.diag(report.var_beta_c_star[0, 0])
    rel = np.abs(theo / emp - 1.0)
    ok = bool(np.all(rel < 0.10))
    _report(
        capsys, "6a", ok,
        f"corrected-estimator variance within 10%, max rel err {np.max(rel):.3f}",
    )
    assert ok


def test_criterion_6b_corrected_intercept_variance(capsys):
    # Given W the corrected intercept is linear in y, so its variance is
    # exact up to the scalar mean plug-in for the heteroscedastic Var(Y_i | W);
    # the per-observation sum that ignores the shared slope estimate falls
    # short by roughly a factor of 2.5 here.
    report, _, b0 = _criterion_6_setup()
    emp = float(np.var(b0, ddof=1))
    rel = abs(report.var_beta0_c[0, 0] / emp - 1.0)
    ok = rel < 0.15
    _report(
        capsys, "6b", ok,
        f"corrected-intercept variance within 15%, rel err {rel:.3f}",
    )
    assert ok


def test_criterion_7_eqp_method_ordering(capsys):
    violations = []
    for distortion in ("low", "medium"):
        for k in (1, 3, 10):
            config = ScenarioConfig(
                distortion=distortion,
                n_covariates=k,
                levels=None,
                n_grid=(100, 300, 500),
                sigma_list=(0.1, 0.5),
                replicates=100,
                master_seed=2024,
            )
            table = run_grid(config)
            cells = {(n, sigma): dict(zip(METHODS, table.eqp[i, s]))
                     for i, n in enumerate(config.n_grid)
                     for s, sigma in enumerate(config.sigma_list)}
            for (n, sigma), methods in cells.items():
                if methods["full"] >= methods["partial"]:
                    violations.append((distortion, k, n, sigma, "full>=partial"))
                if n >= 300 and methods["full"] >= methods["none"]:
                    violations.append((distortion, k, n, sigma, "full>=none"))
    ok = not violations
    _report(
        capsys, 7, ok,
        f"EQP method ordering across 36 cells, {len(violations)} violations",
    )
    assert ok, violations


def test_criterion_8_intercept_variance_gap(capsys):
    config = ScenarioConfig(
        distortion="low",
        levels=(3,),
        n_grid=(50, 500),
        sigma_list=(0.2,),
        replicates=600,
        master_seed=7,
    )
    points = intercept_variance_curve(config, 0.2)
    by_n = {p.n: p for p in points}
    below = all(p.theoretical < p.empirical for p in points)
    gap = {
        n: (by_n[n].empirical - by_n[n].theoretical) / by_n[n].empirical
        for n in (50, 500)
    }
    ok = below and gap[500] < gap[50]
    _report(
        capsys, 8, ok,
        f"theoretical below empirical intercept variance, relative gap "
        f"{gap[50]:.3f} (n=50) -> {gap[500]:.3f} (n=500)",
    )
    assert ok


def test_criterion_9_determinism(capsys):
    config = ScenarioConfig(
        distortion="medium",
        n_covariates=2,
        levels=None,
        n_grid=(50, 150, 300),
        sigma_list=(0.1, 0.5),
        replicates=20,
        master_seed=909,
    )
    runs = [run_grid(config).to_csv() for _ in range(4)]
    ok = len(set(runs)) == 1
    _report(capsys, 9, ok, "byte-identical eqp.csv across reruns")
    assert ok
