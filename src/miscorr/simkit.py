"""Simulation study engine: scenario grids, data generation, replicate
engine, and weighted mean squared error aggregation.

Replicate streams are derived by counter from (master_seed, stream tag,
replicate id), so results are bitwise reproducible regardless of execution
order.  Within a replicate, designs are generated once at the largest
sample size and truncated, so smaller samples are exact prefixes of larger
ones, and one stacked fit over the replicate's occupied cells covers every
(n, sigma) cell of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .categorical import CategoricalSpec, encode_cells, encode_dummy
from .diagnostics import conditional_response_variance, var_beta0_c_uncorrelated
from .errors import RankDeficient, UndefinedScenario, ValidationError
from .estimators import _mechanism, correct, fit_prefixes, ols_fit
from .misclass import DISTORTION_LEVELS, SCENARIO_THETAS, scenario_theta

METHODS = ("none", "partial", "full")
RANDOM_LEVEL_CHOICES = (2, 3, 4)
HIGH_DISTORTION_SIGMAS = (0.1, 1.0)

_STREAM_STRUCTURE = 1
_STREAM_X = 2
_STREAM_W = 3
_STREAM_Y = 4


@dataclass(frozen=True)
class TruthSpec:
    """True parameter vector (intercept first): beta_l = 0.5 + 0.2 l."""

    beta_star: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta_star, dtype=float).ravel()
        object.__setattr__(self, "beta_star", beta)
        if np.any(beta == 0):
            raise ValidationError("truth entries must be nonzero (EQP weights)")

    @classmethod
    def default(cls, n_slopes: int) -> "TruthSpec":
        return cls(0.5 + 0.2 * np.arange(n_slopes + 1))


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid definition for one simulation run.

    ``levels`` fixes L_k per covariate; ``None`` draws each L_k uniformly
    from {2, 3, 4} per replicate (forced to 4 under high distortion).
    Marginals of the true categories are uniform per level.  ``n_grid`` is
    sorted and duplicate sizes are dropped.  Each sigma seeds its own y
    stream, so sigmas that ``_sigma_key`` cannot tell apart are refused.
    """

    distortion: str
    n_covariates: int = 1
    levels: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] = tuple(range(50, 501, 25))
    sigma_list: tuple[float, ...] = (0.1, 0.2, 0.5, 1.0)
    replicates: int = 300
    master_seed: int = 0

    def __post_init__(self):
        if self.distortion not in DISTORTION_LEVELS:
            raise ValidationError(f"unknown distortion {self.distortion!r}")
        if self.n_covariates < 1:
            raise ValidationError("need at least one covariate")
        if self.replicates < 1:
            raise ValidationError("need at least one replicate")
        object.__setattr__(self, "n_grid", tuple(sorted({int(n) for n in self.n_grid})))
        if not self.n_grid:
            raise ValidationError("empty n grid")
        if self.n_grid[0] < 1:
            raise ValidationError(f"sample sizes must be at least 1, got {self.n_grid[0]}")
        levels = self.levels
        if levels is not None:
            levels = tuple(int(lk) for lk in levels)
            if len(levels) == 1 and self.n_covariates > 1:
                levels = levels * self.n_covariates
            if len(levels) != self.n_covariates:
                raise ValidationError("levels length does not match covariate count")
        if self.distortion == "high" and levels is None:
            levels = (4,) * self.n_covariates
        for lk in levels or ():
            if (self.distortion, lk) not in SCENARIO_THETAS:
                raise UndefinedScenario(self.distortion, lk)
        object.__setattr__(self, "levels", levels)
        sigmas = tuple(float(s) for s in self.sigma_list)
        if not all(math.isfinite(s) and s > 0 for s in sigmas):
            raise ValidationError(f"sigma values must be finite and positive: {sigmas}")
        if self.distortion == "high":
            sigmas = tuple(s for s in sigmas if s in HIGH_DISTORTION_SIGMAS)
        if not sigmas:
            raise ValidationError("no usable sigma values for this scenario")
        keys = [_sigma_key(s) for s in sigmas]
        if len(set(keys)) < len(keys):
            raise ValidationError(f"sigmas {sigmas} collide after rounding to 1e-6")
        object.__setattr__(self, "sigma_list", sigmas)

    @property
    def n_gen(self) -> int:
        """Designs are generated at this size and truncated per cell."""
        return max(500, max(self.n_grid))


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(master_seed) & (2**64 - 1), *map(int, key)])


def _sigma_key(sigma: float) -> int:
    # stable integer key so the y stream does not depend on grid ordering
    return int(round(sigma * 1_000_000))


def simulate_x(ps, n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent categorical draws per covariate, one column each."""
    cols = [rng.choice(len(p), size=n, p=np.asarray(p, dtype=float)) for p in ps]
    return np.column_stack(cols).astype(int)


def simulate_w(x: np.ndarray, thetas, rng: np.random.Generator) -> np.ndarray:
    """Draw the observed category from the theta row of each true category."""
    x = np.asarray(x, dtype=int)
    if x.ndim == 1:
        x = x[:, None]
    n, k = x.shape
    out = np.empty_like(x)
    for j in range(k):
        cdf = np.cumsum(np.asarray(thetas[j], dtype=float), axis=1)[x[:, j]]
        u = rng.random(n)
        out[:, j] = (u[:, None] > cdf).sum(axis=1)
    return out


def simulate_y(
    x_design: np.ndarray, truth: TruthSpec, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """y = beta0 + design . beta + noise, noise iid normal(0, sigma^2)."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    x_design = np.asarray(x_design, dtype=float)
    mean = truth.beta_star[0] + x_design @ truth.beta_star[1:]
    return mean + sigma * rng.standard_normal(x_design.shape[0])


def eqp(beta_hat: np.ndarray, truth: TruthSpec) -> float | np.ndarray:
    """Weighted mean squared error: mean over parameters of
    (beta_l - beta_hat_l)^2 / beta_l.  A stack of estimates, parameters on
    the last axis, gives an array of one value per estimate."""
    beta = truth.beta_star
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_hat.shape[-1:] != beta.shape:
        raise ValidationError("estimate length does not match truth length")
    out = np.mean((beta - beta_hat) ** 2 / beta, axis=-1)
    return float(out) if out.ndim == 0 else out


def replicate_structure(config: ScenarioConfig, replicate_id: int):
    """Per-replicate covariate layout and error mechanism."""
    levels = config.levels  # ScenarioConfig fixes 4 levels under high distortion
    if levels is None:
        rng = _rng(config.master_seed, _STREAM_STRUCTURE, replicate_id)
        levels = tuple(int(v) for v in rng.choice(RANDOM_LEVEL_CHOICES, size=config.n_covariates))
    spec = CategoricalSpec(levels)
    thetas = [scenario_theta(config.distortion, lk) for lk in levels]
    ps = [np.full(lk, 1.0 / lk) for lk in levels]
    return spec, thetas, ps


def replicate_designs(config: ScenarioConfig, replicate_id: int):
    """Generate (spec, thetas, ps, x, w) at the full generation size."""
    spec, thetas, ps = replicate_structure(config, replicate_id)
    x = simulate_x(ps, config.n_gen, _rng(config.master_seed, _STREAM_X, replicate_id))
    w = simulate_w(x, thetas, _rng(config.master_seed, _STREAM_W, replicate_id))
    return spec, thetas, ps, x, w


def replicate_responses(config: ScenarioConfig, replicate_id: int, spec: CategoricalSpec,
                        x: np.ndarray, sigmas) -> np.ndarray:
    """One response column per sigma, each from its own y stream; x is
    encoded once."""
    design = encode_dummy(spec, x).design
    truth = TruthSpec.default(spec.n_slopes)
    return np.column_stack([
        simulate_y(design, truth, sigma,
                   _rng(config.master_seed, _STREAM_Y, replicate_id, _sigma_key(sigma)))
        for sigma in sigmas
    ])


def replicate_response(config: ScenarioConfig, replicate_id: int, spec: CategoricalSpec,
                       x: np.ndarray, sigma: float) -> np.ndarray:
    return replicate_responses(config, replicate_id, spec, x, (sigma,))[:, 0]


def _replicate_fits(config: ScenarioConfig, replicate_id: int, sigmas):
    """The replicate pipeline of the grid and the variance curve: designs,
    occupied cells, mechanism, one response column per sigma, then every
    n-prefix of ``config.n_grid`` fitted at once.  Returns the spec, cells,
    mechanism (blocks, posteriors, posterior rows) and the PrefixFits."""
    spec, thetas, ps, x, w = replicate_designs(config, replicate_id)
    cells = encode_cells(spec, w)
    blocks, posteriors, pi = _mechanism(spec, thetas, ps, cells.categories)
    ys = replicate_responses(config, replicate_id, spec, x, sigmas)
    fits = fit_prefixes(cells.design_star, ys, config.n_grid, pi, blocks, cells.inverse)
    return spec, cells, (blocks, posteriors, pi), fits


def run_replicate(config: ScenarioConfig, cell: tuple[int, float], replicate_id: int):
    """Estimate vectors in METHODS order for one (n, sigma) cell of one
    replicate: the steps of fit_corrected on w[:n], y[:n], so bit for bit
    its result, but a prefix too small to fit raises RankDeficient."""
    n, sigma = cell
    spec, thetas, ps, x, w = replicate_designs(config, replicate_id)
    cells = encode_cells(spec, w[:n])
    y = replicate_response(config, replicate_id, spec, x, sigma)[:n]
    naive = ols_fit(cells.design_star, y, cells.column_map, cells.inverse)
    blocks, _, pi = _mechanism(spec, thetas, ps, cells.categories)
    fit = correct(naive, y, pi, blocks, cells.counts)
    return dict(zip(METHODS, (fit.naive.gamma_star, fit.beta_c_star, fit.beta_full)))


@dataclass(frozen=True)
class InterceptVariancePoint:
    n: int
    theoretical: float
    empirical: float


def intercept_variance_curve(config: ScenarioConfig, sigma: float) -> list[InterceptVariancePoint]:
    """Theoretical vs empirical variance of the corrected intercept per n of
    ``config.n_grid``.

    Every replicate draws its designs and response once and fits all their
    n-prefixes together; the empirical variance is taken across replicates.
    ``theoretical`` is the uncorrelated per-observation expression
    ``diagnostics.var_beta0_c_uncorrelated``, averaged over the replicate
    designs with the mean exact conditional response variance as plug-in;
    the curve shows its shortfall.  The exact variance of
    ``variance_report`` is not used: the empirical variance over redrawn
    designs also holds the spread of E[beta0_c_hat | W], so its gap to the
    exact form would be mostly Monte Carlo noise.
    """
    if config.replicates < 2:
        raise ValidationError("an empirical variance needs at least 2 replicates")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    beta0_hats, theoreticals = [], []
    for rep in range(config.replicates):
        spec, cells, (blocks, posteriors, pi), fits = _replicate_fits(config, rep, (sigma,))
        if fits.refused.any():
            n = config.n_grid[int(np.argmax(fits.refused))]
            raise RankDeficient(f"replicate {rep}: the first {n} rows are rank deficient")
        beta0_hats.append(fits.beta0_c[:, 0])
        beta = TruthSpec.default(spec.n_slopes).beta_star[1:]
        sigma2 = conditional_response_variance(posteriors, cells.categories, beta, sigma)
        theoreticals.append([
            var_beta0_c_uncorrelated(cells.design_star, blocks, pi, c @ sigma2 / n, c)
            for n, c in zip(config.n_grid, fits.counts)
        ])
    return [
        InterceptVariancePoint(n, float(np.mean(th)), float(np.var(b0, ddof=1)))
        for n, th, b0 in zip(config.n_grid, np.transpose(theoreticals), np.transpose(beta0_hats))
    ]


@dataclass(frozen=True)
class EqpRecord:
    distortion: str
    n_covariates: int
    levels: str
    n: int
    sigma: float
    method: str
    eqp: float
    mcse: float
    failures: int
    replicates: int


@dataclass(frozen=True)
class EqpTable:
    records: tuple[EqpRecord, ...]

    HEADER = "distortion,K,levels,n,sigma,method,eqp,mcse,failures,replicates"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.records:
            lines.append(
                f"{r.distortion},{r.n_covariates},{r.levels},{r.n},"
                f"{r.sigma:.17g},{r.method},{r.eqp:.17g},{r.mcse:.17g},"
                f"{r.failures},{r.replicates}"
            )
        return "\n".join(lines) + "\n"


def _replicate_eqps(config: ScenarioConfig, replicate_id: int):
    """EQP of one replicate indexed [n, sigma, method], NaN in the cells
    whose prefix the rank guard refused, and the refused mask over n."""
    spec, _, _, fits = _replicate_fits(config, replicate_id, config.sigma_list)
    estimates = np.stack([fits.gamma_star, fits.beta_c_star, fits.beta_full], axis=2)
    return eqp(estimates, TruthSpec.default(spec.n_slopes)), fits.refused


def run_grid(config: ScenarioConfig, threads: int = 1) -> EqpTable:
    """Full factorial over n_grid x sigma_list x methods, aggregated over
    replicates in fixed replicate order.  ``threads`` is accepted and has no
    effect: replicates run one after another, because each is a few
    milliseconds of small numpy calls and a thread pool made runs slower."""
    per_rep = [_replicate_eqps(config, r) for r in range(config.replicates)]
    eqps = np.stack([e for e, _ in per_rep])  # [replicate, n, sigma, method]
    refused = np.stack([r for _, r in per_rep])  # [replicate, n]

    levels_sig = "random" if config.levels is None else "-".join(map(str, config.levels))
    records = []
    for s, sigma in enumerate(config.sigma_list):
        for i, n in enumerate(config.n_grid):
            ok = eqps[~refused[:, i], i, s]
            for method, vals in zip(METHODS, ok.T):
                mean, mcse = (float(vals.mean()), 0.0) if len(vals) else (math.nan, math.nan)
                if len(vals) > 1:
                    mcse = float(vals.std(ddof=1) / math.sqrt(len(vals)))
                records.append(EqpRecord(
                    config.distortion, config.n_covariates, levels_sig, n, sigma, method,
                    mean, mcse, failures=int(refused[:, i].sum()), replicates=len(ok),
                ))
    return EqpTable(records=tuple(records))
