"""Simulation study engine: scenario grids, data generation, replicate
engine, and weighted mean squared error aggregation.

Replicate streams are derived by counter from (master_seed, stream tag,
replicate id), so results are bitwise reproducible regardless of execution
order.  Within a replicate, designs are generated once at the largest
sample size and truncated, so smaller samples are exact prefixes of larger
ones.  Replicates that share a design shape are fitted in one stacked
call, which covers every (n, sigma) cell of each of them and gives each
the fits it would get alone, bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import NamedTuple

import numpy as np

from .categorical import CategoricalSpec, _indicators, encode_cells
from .diagnostics import conditional_response_variance, var_beta0_c_uncorrelated
from .errors import RankDeficient, UndefinedScenario, ValidationError
# ols_fit kept for test_tracer_counts_errors_at_layer_boundaries_and_restores_functions (ROADMAP 11)
from .estimators import fit_prefixes, ols_fit  # noqa: F401
from .misclass import (DISTORTION_LEVELS, SCENARIO_THETAS, Posterior, check_marginal,
                       check_theta, posterior_rows, scenario_theta)
from .moments import MomentBlocks, _assemble, _covariate

METHODS = ("none", "partial", "full")
RANDOM_LEVEL_CHOICES = (2, 3, 4)
HIGH_DISTORTION_SIGMAS = (0.1, 1.0)

_STREAM_STRUCTURE = 1
_STREAM_X = 2
_STREAM_W = 3
_STREAM_Y = 4

# float64-sized elements that _replicate_fits holds before it fits: each
# replicate's QR stack plus its rows (responses and cell index).  The bench
# grid's 24 replicates (K=3, random levels, n_gen 500) take about 225k
QR_STACK_BUDGET = 2**18

# level structures kept: every level tuple of up to 4 covariates under each
# distortion (120 + 120 + 4).  At K=10 there are 3^10 tuples and a replicate
# rarely meets its own again, so an unbounded cache would only grow
STRUCTURE_CACHE_SIZE = 256


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
    @functools.lru_cache(maxsize=64)
    def default(cls, n_slopes: int) -> "TruthSpec":
        """One truth per width, shared and read-only."""
        truth = cls(0.5 + 0.2 * np.arange(n_slopes + 1))
        truth.beta_star.flags.writeable = False
        return truth


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid definition for one simulation run.

    ``levels`` fixes L_k per covariate; ``None`` draws each L_k uniformly
    from {2, 3, 4} per replicate (forced to 4 under high distortion).
    Marginals of the true categories are uniform per level.  ``n_grid`` is
    sorted and duplicate sizes are dropped.  Each sigma seeds its own y
    stream and labels its output files as ``{:g}``: sigmas that ``_sigma_key``
    cannot key or tell apart, or that label cannot tell apart, are refused.
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
        if len({_sigma_key(s) for s in sigmas}) < len(sigmas):
            raise ValidationError(f"sigmas {sigmas} collide after rounding to 1e-6")
        if len({f"{s:g}" for s in sigmas}) < len(sigmas):
            raise ValidationError(f"sigmas {sigmas} share a file label at 6 significant digits")
        object.__setattr__(self, "sigma_list", sigmas)

    @property
    def n_gen(self) -> int:
        """Designs are generated at this size and truncated per cell."""
        return max(500, max(self.n_grid))


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    """``default_rng([master_seed mod 2**64, *key])``, seeded with the uint32
    words, low first, that SeedSequence would coerce that list to."""
    words = [v >> s & 0xFFFFFFFF for v in (int(master_seed) & (2**64 - 1), *map(int, key))
             for s in range(0, max(v.bit_length(), 1), 32)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32))))


def _sigma_key(sigma: float) -> int:
    # stable integer key so the y stream does not depend on grid ordering
    if not math.isfinite(key := sigma * 1_000_000):
        raise ValidationError(f"sigma {sigma:g} is too large to key its y stream")
    return int(round(key))


def _choice_cdf(p) -> np.ndarray:
    """Generator.choice's cdf of p, refusing what choice refuses."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not (p.min() >= 0 and abs(p.sum() - 1) <= np.sqrt(np.finfo(float).eps)):
        raise ValueError(f"p is not a probability vector: {p}")
    cum = np.cumsum(p)
    return cum / cum[-1]


def _padded(blocks) -> np.ndarray:
    """The K blocks stacked into one (K, L_max, ...) table padded with +inf."""
    width = max(max(block.shape) for block in blocks)
    table = np.full((len(blocks),) + (width,) * blocks[0].ndim, np.inf)
    for k, block in enumerate(blocks):
        table[(k, *map(slice, block.shape))] = block
    return table


def _draw_x(cdfs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """x from the (K, L_max) +inf-padded table of each covariate's cdf."""
    u = rng.random((len(cdfs), n))
    return np.ascontiguousarray((u >= cdfs.T[:, :, None]).sum(axis=0).T)


def _draw_w(x: np.ndarray, cums: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """w from the (K, L_max, L_max) +inf-padded table of cumulative theta rows."""
    lmax = cums.shape[1]
    u = rng.random(x.shape[::-1])
    # cdf[l, k, i]: entry l of the cumulative theta row of x[i, k]
    cdf = np.take(cums.transpose(2, 0, 1).reshape(lmax, -1),
                  x.T + lmax * np.arange(len(cums))[:, None], axis=1)
    return np.ascontiguousarray((u > cdf).sum(axis=0).T)


def simulate_x(ps, n: int, rng: np.random.Generator) -> np.ndarray:
    """One column per covariate, bit for bit ``rng.choice(len(p), n, p=p)`` for
    each p in turn, from one (K, n) block of uniforms: a level is the count of
    entries of choice's cdf of p, cumsum(p) / cumsum(p)[-1] padded with +inf,
    at or below its uniform.  Refuses a negative or NaN p, or one whose sum
    is off 1 by more than sqrt(eps), as choice does."""
    return _draw_x(_padded([_choice_cdf(p) for p in ps]), n, rng)


def simulate_w(x: np.ndarray, thetas, rng: np.random.Generator) -> np.ndarray:
    """Draw the observed category from the theta row of each true category,
    with one (K, n) block of uniforms, the bits of one ``rng.random(n)`` per
    covariate: a level is the count of entries of the row in the +inf-padded
    (K, L_max, L_max) table of cumulative theta rows below its uniform.
    Each theta is read as ``check_theta`` returns it: refused if it is not
    row-stochastic, its rows renormalized if one sums to 1 only within
    RENORM_TOL, as a fit reads it."""
    x = np.asarray(x, dtype=int)
    if x.ndim == 1:
        x = x[:, None]
    cums = [np.cumsum(check_theta(theta), axis=1) for theta in thetas]
    if len(cums) != x.shape[1] or not ((x >= 0) & (x < [len(c) for c in cums])).all():
        raise ValueError("x needs one theta per column, with a row for each of its levels")
    return _draw_w(x, _padded(cums), rng)


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


class _Structure(NamedTuple):
    """What a replicate's level tuple fixes under a distortion, read-only:
    its spec, theta and p, draw tables and assembled mechanism."""

    spec: CategoricalSpec
    thetas: tuple[np.ndarray, ...]
    ps: tuple[np.ndarray, ...]
    cdfs: np.ndarray
    cums: np.ndarray
    blocks: MomentBlocks
    posteriors: tuple[Posterior, ...]


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False


@functools.cache
def _preset(distortion: str, lk: int):
    """The L_k preset of a distortion, built once and read-only: its theta
    and uniform p, each checked, p's cdf, theta's cumulative rows and the
    covariate's part of the mechanism, as ``moments._assemble`` takes it."""
    theta = check_theta(scenario_theta(distortion, lk))
    p = check_marginal(np.full(lk, 1.0 / lk))
    cdf, cums = _choice_cdf(p), np.cumsum(theta, axis=1)
    part = _covariate(0, lk, theta, p)
    *arrays, posterior = part
    _read_only(theta, p, cdf, cums, *arrays, posterior.pi, posterior.q)
    return theta, p, cdf, cums, part


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _structure(distortion: str, levels: tuple[int, ...]) -> _Structure:
    """The ``_Structure`` of a level tuple, assembled from its presets without
    checking theta and p again, with draw tables padded by ``_padded`` as
    ``simulate_x`` and ``simulate_w`` pad theirs; read-only."""
    thetas, ps, cdfs, cums, parts = zip(*(_preset(distortion, lk) for lk in levels))
    blocks, posteriors = _assemble(parts)
    tables = _padded(cdfs), _padded(cums)
    _read_only(*tables, blocks.sigma_w, blocks.sigma_wx, blocks.correction, blocks.pi_ref)
    return _Structure(CategoricalSpec(levels), thetas, ps, *tables, blocks, tuple(posteriors))


def _replicate_structure(config: ScenarioConfig, replicate_id: int) -> _Structure:
    levels = config.levels  # ScenarioConfig fixes 4 levels under high distortion
    if levels is None:
        rng = _rng(config.master_seed, _STREAM_STRUCTURE, replicate_id)
        levels = tuple(int(v) for v in rng.choice(RANDOM_LEVEL_CHOICES, size=config.n_covariates))
    return _structure(config.distortion, levels)


def replicate_designs(config: ScenarioConfig, replicate_id: int,
                      structure: _Structure | None = None):
    """Generate (spec, thetas, ps, x, w) at the full generation size, from
    the replicate's level structure where the caller holds it already."""
    if structure is None:
        structure = _replicate_structure(config, replicate_id)
    x = _draw_x(structure.cdfs, config.n_gen, _rng(config.master_seed, _STREAM_X, replicate_id))
    w = _draw_w(x, structure.cums, _rng(config.master_seed, _STREAM_W, replicate_id))
    return structure.spec, list(structure.thetas), list(structure.ps), x, w


def replicate_responses(config: ScenarioConfig, replicate_id: int, spec: CategoricalSpec,
                        x: np.ndarray, sigmas) -> np.ndarray:
    """One response column per sigma, y = beta0 + design . beta + sigma * z
    with z iid normal from the sigma's own y stream; the mean is taken once,
    from the C-ordered design of x, as BLAS sums the rows of another layout
    in another order.  x holds categories in range, as drawn."""
    beta = TruthSpec.default(spec.n_slopes).beta_star
    mean = beta[0] + _indicators(spec, x) @ beta[1:]
    ys = np.empty((len(mean), len(sigmas)))
    for j, sigma in enumerate(sigmas):
        rng = _rng(config.master_seed, _STREAM_Y, replicate_id, _sigma_key(sigma))
        ys[:, j] = mean + sigma * rng.standard_normal(len(mean))
    return ys


def replicate_response(config: ScenarioConfig, replicate_id: int, spec: CategoricalSpec,
                       x: np.ndarray, sigma: float) -> np.ndarray:
    return replicate_responses(config, replicate_id, spec, x, (sigma,))[:, 0]


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, e.g. on Windows
        return None
    return pages * size if pages > 0 and size > 0 else None


_CGROUP_MEMORY = {"": ("/sys/fs/cgroup", "memory.max"),  # v2, by the line "0::<path>"
                  "memory": ("/sys/fs/cgroup/memory", "memory.limit_in_bytes")}  # v1


def _read_text(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


@functools.cache
def _cgroup_limit() -> int | None:
    """The smallest memory limit of the process's cgroups, as
    /proc/self/cgroup names them, and of their ancestors: v2 ``memory.max``,
    v1 ``memory.limit_in_bytes``.  "max", or no such file, is no limit;
    None where there is none.  Read once per process (about 0.1 ms, some
    files of the cgroup tree)."""
    limits = []
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        controllers, _, path = line.partition(":")[2].partition(":")
        for controller, (root, name) in _CGROUP_MEMORY.items():
            if controller in controllers.split(","):
                cgroup = PurePosixPath(path)
                for directory in (cgroup, *cgroup.parents):
                    text = _read_text(os.path.join(root, str(directory).lstrip("/"), name))
                    if text is not None and text.strip().isdigit():
                        limits.append(int(text))
    return min(limits, default=None)


def _replicate_bytes(config: ScenarioConfig, sigmas) -> int:
    """An upper bound on the bytes the replicate loop holds at its peak: the
    sum of the draws' peak and the fit's, each over n_gen rows and at most
    min(n_gen, prod L_k) occupied cells with m columns (L_k = 4 where drawn).
    The draws hold n_gen rows of 10K + 3s + 6 float64 columns, for s sigmas,
    plus the held batch: the w draw's peak, K (L_max + 4) (K uniforms, x,
    each row's L_max cumulative theta entries, their comparison, its sums and
    w); the replicate before it, x, w, the responses and the cell index
    (2K + s + 1); and the fit's copies of the held responses beside the
    current ones (2s + 5).  A batch holds at most QR_STACK_BUDGET elements or
    one replicate.  The fit holds four copies of one replicate's QR stack,
    prefixes x cells x m (the scaled rows, qr's copy of them, Q, and LAPACK's
    buffers and the counts beside them), and the cells' tables of this
    replicate and the one before it: design (m), posterior rows (m - 1)
    and categories (K)."""
    width = max(lk for _, lk in SCENARIO_THETAS)  # L_max, the widest draw table
    k, s = config.n_covariates, len(sigmas)
    levels = config.levels or (max(RANDOM_LEVEL_CHOICES),) * k
    m, cells = 1 + sum(levels) - k, min(config.n_gen, math.prod(levels))
    columns = k * (width + 4) + (2 * k + s + 1) + (2 * s + 5)
    stack = len(config.n_grid) * max(cells, m) * m
    return 8 * (config.n_gen * columns + QR_STACK_BUDGET + 4 * stack + 2 * cells * (2 * m + k))


def _replicate_fits(config: ScenarioConfig, sigmas):
    """The replicate pipeline of the grid and the variance curve, yielding
    each replicate in order: designs, occupied cells, one response column
    per sigma, then every n-prefix of ``config.n_grid`` fitted at once.
    Yields the spec, cells, posteriors and the PrefixFits, which hold the
    blocks and the cells' posterior rows.  The mechanism is read from the
    replicate's ``_Structure``, built once per level tuple.

    Before the first draw, a grid whose replicates need more bytes
    (``_replicate_bytes``) than the smaller of physical memory and the
    process's cgroup limit raises MemoryError: the operating system grants
    such an allocation lazily and kills the process when its pages are
    touched.  Where neither size is known, no grid is refused.

    Replicates are drawn one at a time and held until the next would take
    the held QR stacks and rows past QR_STACK_BUDGET elements; a batch
    holds at least one.  Each batch is fitted in one ``fit_prefixes`` call
    per design shape (occupied cells, columns)."""
    need = _replicate_bytes(config, sigmas)
    limits = [(size, what) for size, what in ((_physical_memory(), "physical memory"),
                                              (_cgroup_limit(), "the cgroup's memory limit"))
              if size is not None]
    if limits and need > (limit := min(limits))[0]:
        raise MemoryError(f"one replicate of {config.n_gen} rows needs up to {need} bytes, "
                          f"more than the {limit[0]} bytes of {limit[1]}")
    held, size = [], 0
    for replicate_id in range(config.replicates):
        structure = _replicate_structure(config, replicate_id)
        spec, _, _, x, w = replicate_designs(config, replicate_id, structure)
        cells = encode_cells(spec, w)
        pi = posterior_rows(structure.posteriors, cells.categories)
        ys = replicate_responses(config, replicate_id, spec, x, sigmas)
        rows, m = cells.design_star.shape
        # the (prefix, row, column) QR stack, then the responses and the cell index
        elements = len(config.n_grid) * max(rows, m) * m + ys.size + cells.inverse.size
        if held and size + elements > QR_STACK_BUDGET:
            yield from _fit_batch(config.n_grid, held)
            held, size = [], 0
        held.append((spec, cells, structure.posteriors, structure.blocks, pi, ys))
        size += elements
    yield from _fit_batch(config.n_grid, held)


def _fit_batch(ns, held):
    """Fit the held replicates, one ``fit_prefixes`` call per design shape,
    and yield (spec, cells, posteriors, PrefixFits) in the held order."""
    shapes, fits = {}, [None] * len(held)
    for i, rep in enumerate(held):
        shapes.setdefault(rep[1].design_star.shape, []).append(i)
    for group in shapes.values():
        _, cells, _, blocks, pi, ys = zip(*(held[i] for i in group))
        stacked = fit_prefixes(np.stack([c.design_star for c in cells]), np.stack(ys), ns,
                               np.stack(pi), blocks, np.stack([c.inverse for c in cells]))
        for i, fit in zip(group, stacked):
            fits[i] = fit
    for (spec, cells, posteriors, *_), fit in zip(held, fits):
        yield spec, cells, posteriors, fit


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
    the curve shows its shortfall.  With theta and p known,
    E[beta0_c_hat | W] = beta0 for every design the fit accepts, so the
    empirical variance over redrawn designs has no spread of that mean in
    it: it estimates the mean over designs of Var(beta0_c_hat | W), which
    ``variance_report`` gives in closed form for a homoscedastic plug-in.
    """
    if config.replicates < 2:
        raise ValidationError("an empirical variance needs at least 2 replicates")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    _sigma_key(sigma)  # refuse a sigma that cannot key its y stream before drawing
    beta0_hats, theoreticals = [], []
    for rep, (spec, cells, posteriors, fits) in enumerate(_replicate_fits(config, (sigma,))):
        if fits.refused.any():
            n = config.n_grid[int(np.argmax(fits.refused))]
            raise RankDeficient(f"replicate {rep}: the first {n} rows are rank deficient")
        beta0_hats.append(fits.beta0_c[:, 0])
        beta = TruthSpec.default(spec.n_slopes).beta_star[1:]
        sigma2 = conditional_response_variance(posteriors, cells.categories, beta, sigma)
        plugins = fits.counts[:, None] @ sigma2 / np.asarray(config.n_grid)[:, None]
        theoreticals.append(var_beta0_c_uncorrelated(fits, plugins)[:, 0])
    return [
        InterceptVariancePoint(n, float(np.mean(th)), float(np.var(b0, ddof=1)))
        for n, th, b0 in zip(config.n_grid, np.transpose(theoreticals), np.transpose(beta0_hats))
    ]


@dataclass(frozen=True, eq=False)
class EqpTable:
    """``run_grid``'s mean EQP over the surviving replicates and its MCSE,
    indexed [n, sigma, method] over ``config``'s grid and METHODS (NaN where
    every replicate was refused), and the replicates refused per n.  Equal
    tables have equal configs and arrays, NaN included; they have no hash."""

    config: ScenarioConfig
    eqp: np.ndarray
    mcse: np.ndarray
    failures: np.ndarray

    HEADER = "distortion,K,levels,n,sigma,method,eqp,mcse,failures,replicates"

    def __eq__(self, other):
        return isinstance(other, EqpTable) and self.config == other.config and all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
            for f in ("eqp", "mcse", "failures"))

    def _rows(self) -> list[tuple]:
        """The fields of each cell's CSV row, sigma-major, then n, then method."""
        c = self.config
        levels = "random" if c.levels is None else "-".join(map(str, c.levels))
        eqp, mcse, failures = self.eqp.tolist(), self.mcse.tolist(), self.failures.tolist()
        return [(c.distortion, c.n_covariates, levels, n, sigma, method, eqp[i][s][j],
                 mcse[i][s][j], failures[i], c.replicates - failures[i])
                for s, sigma in enumerate(c.sigma_list) for i, n in enumerate(c.n_grid)
                for j, method in enumerate(METHODS)]

    def to_csv(self) -> str:
        return "".join([self.HEADER + "\n", *("%s,%d,%s,%d,%.17g,%s,%.17g,%.17g,%d,%d\n" % row
                                              for row in self._rows())])


def run_grid(config: ScenarioConfig) -> EqpTable:
    """Full factorial over n_grid x sigma_list x methods, aggregated over
    replicates in fixed replicate order.  Replicates are drawn one after
    another and fitted in same-shape stacks, on one thread: each is a few
    milliseconds of small numpy calls, and a thread pool made runs slower.
    Each replicate is scored as its fits arrive; only its EQPs are kept."""
    shape = (len(config.n_grid), len(config.sigma_list), len(METHODS))
    eqps = np.empty((config.replicates, *shape))  # NaN where refused
    refused = np.empty((config.replicates, len(config.n_grid)), dtype=bool)
    for rep, (spec, _, _, fits) in enumerate(_replicate_fits(config, config.sigma_list)):
        # [n, sigma, method, parameter] in METHODS order: gamma_star, beta_c_star
        # (gamma's intercept, corrected slopes) and beta_full (corrected intercept too)
        estimates = np.repeat(fits.gamma_star[:, :, None], len(METHODS), axis=2)
        estimates[:, :, 1:, 1:], estimates[:, :, 2, 0] = fits.beta_c[:, :, None], fits.beta0_c
        eqps[rep] = eqp(estimates, TruthSpec.default(spec.n_slopes))
        refused[rep] = fits.refused

    # per n, one reduction over the last axis of its surviving replicates'
    # contiguous [sigma, method, replicate] EQPs sums in the 1-D call's order
    mean, mcse = np.full(shape, math.nan), np.full(shape, math.nan)
    for i in range(len(config.n_grid)):
        ok = np.ascontiguousarray(np.moveaxis(eqps[~refused[:, i], i], 0, -1))
        if k := ok.shape[-1]:
            mean[i] = ok.mean(axis=-1)
            mcse[i] = ok.std(axis=-1, ddof=1) / math.sqrt(k) if k > 1 else 0.0
    return EqpTable(config, mean, mcse, refused.sum(axis=0))
