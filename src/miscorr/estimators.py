"""Naive least-squares fit on the error-prone design and the two-stage
correction: slopes through the attenuation inverse, intercept through the
posterior-expected indicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import (
    CategoricalSpec, Cells, ObservedDataset, encode_cells, require_fit_ready
)
from .errors import RankDeficient, ValidationError
from .misclass import posterior_from, posterior_rows
from .moments import MomentBlocks, build_moment_blocks

RANK_TOL = 1e-10


@dataclass(frozen=True)
class NaiveFit:
    """OLS result for the regression of y on the observed-category design."""

    gamma_star: np.ndarray
    sigma2_w: float

    @property
    def intercept(self) -> float:
        return float(self.gamma_star[0])

    @property
    def slopes(self) -> np.ndarray:
        return self.gamma_star[1:]


@dataclass(frozen=True)
class CorrectedFit:
    """Corrected slopes and intercept, with the naive fit attached.

    ``beta_c_star`` keeps the uncorrected intercept alongside the corrected
    slopes; the corrected intercept is exposed separately as ``beta0_c``.
    ``pi_rows`` are the posterior rows of the fitted design's rows: one per
    occupied cell when the fit ran on cells.
    """

    naive: NaiveFit
    beta_c: np.ndarray
    beta0_c: float
    blocks: MomentBlocks
    pi_rows: np.ndarray

    @property
    def beta_c_star(self) -> np.ndarray:
        return np.concatenate([[self.naive.intercept], self.beta_c])

    @property
    def beta_full(self) -> np.ndarray:
        """Fully corrected parameter vector (beta0_c, beta_c)."""
        return np.concatenate([[self.beta0_c], self.beta_c])


def _refused(r_mat: np.ndarray, n) -> np.ndarray:
    """The rank guard, over one R factor or a stack of them: True where the
    fit has no more rows than columns, or where an |R| diagonal entry falls
    below RANK_TOL times the largest one (taken as at least 1)."""
    diag = np.abs(np.diagonal(r_mat, axis1=-2, axis2=-1))
    largest = np.maximum(diag.max(axis=-1, initial=0.0), 1.0)
    collinear = diag.min(axis=-1, initial=np.inf) < RANK_TOL * largest
    return (np.asarray(n) <= r_mat.shape[-1]) | collinear


def _weighted_rows(design_star: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sqrt(c) U, stacked over leading axes of ``counts``: its R factor has
    R^T R = W*^T W*.  Zero rows pad it to the column count, so R is square."""
    rows = np.sqrt(counts)[..., None] * design_star
    short = design_star.shape[-1] - rows.shape[-2]
    if short > 0:
        rows = np.concatenate([rows, np.zeros((*rows.shape[:-2], short, rows.shape[-1]))], -2)
    return rows


def _solve_cells(design_star, counts, sums, n):
    """Least squares from cell counts and sums over a stack of fits: the QR
    of sqrt(c) U and gamma = R^-1 Q^T (sums / sqrt(c)), 0 for an empty cell.
    Returns R, gamma [..., response column, parameter] (NaN where refused)
    and the refused mask."""
    root = np.sqrt(counts)[..., None]
    rhs = np.divide(sums, root, out=np.zeros(sums.shape), where=root > 0)
    q_mat, r_mat = np.linalg.qr(_weighted_rows(design_star, counts))
    refused = _refused(r_mat, n)
    # one singular R would fail the whole stacked solve
    solvable = np.where(refused[..., None, None], np.eye(r_mat.shape[-1]), r_mat)
    q_t = np.swapaxes(q_mat[..., : rhs.shape[-2], :], -1, -2)
    gamma = np.swapaxes(np.linalg.solve(solvable, q_t @ rhs), -1, -2)
    gamma[refused] = np.nan
    return r_mat, gamma, refused


def ols_fit(design_star: np.ndarray, y: np.ndarray, column_map: dict | None = None,
            inverse: np.ndarray | None = None) -> NaiveFit:
    """Least squares via QR factorization with a rank guard.  By default each
    row of ``design_star`` is one observation; with ``inverse`` its rows are
    cells, y[i] lies in cell inverse[i], and the fit reads only the cells'
    counts and sums of y (and the residuals for the RSS)."""
    design_star = np.asarray(design_star, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, m = len(y), design_star.shape[1]
    inverse = np.arange(len(design_star)) if inverse is None else inverse  # sqrt(1) U = U
    counts = np.bincount(inverse, minlength=len(design_star))
    sums = np.bincount(inverse, weights=y, minlength=len(design_star))
    r_mat, gamma, refused = _solve_cells(design_star, counts, sums[:, None], n)
    if refused:
        if n <= m:
            raise RankDeficient(f"need more than {m} rows, got {n}")
        col = int(np.argmin(np.abs(np.diag(r_mat))))
        where = [f" (covariate {k}, level {lv})"  # column 0 is the intercept
                 for (k, lv), i in (column_map or {}).items() if i + 1 == col]
        raise RankDeficient(f"design column {col} is collinear{''.join(where)}")
    gamma = gamma[0]
    resid = y - (design_star @ gamma)[inverse]
    return NaiveFit(gamma_star=gamma, sigma2_w=float(resid @ resid) / (n - m))


def correct_slopes(naive: NaiveFit, blocks: MomentBlocks) -> np.ndarray:
    """Undo the asymptotic attenuation of the naive slopes."""
    return blocks.correction @ naive.slopes


def correct_intercept(y: np.ndarray, pi_rows: np.ndarray, beta_c: np.ndarray,
                      counts=None) -> float:
    """Mean of y minus the posterior-expected indicator row times the
    corrected slopes, (sum y - (c^T pi) beta_c) / n, where row j of
    ``pi_rows`` stands for counts[j] observations (default 1 each)."""
    y = np.asarray(y, dtype=float).ravel()
    pi_rows = np.asarray(pi_rows, dtype=float)
    counts = np.ones(len(pi_rows)) if counts is None else counts
    return float((y.sum() - (counts @ pi_rows) @ np.asarray(beta_c)) / len(y))


def correct(
    naive: NaiveFit, y: np.ndarray, pi_rows: np.ndarray, blocks: MomentBlocks, counts=None
) -> CorrectedFit:
    """Correct a naive fit: slopes through the attenuation inverse, then the
    intercept through the posterior rows of the same observations (row j
    standing for counts[j] of them, if given)."""
    beta_c = correct_slopes(naive, blocks)
    beta0_c = correct_intercept(y, pi_rows, beta_c, counts)
    return CorrectedFit(naive, beta_c, beta0_c, blocks, pi_rows)


@dataclass(frozen=True)
class PrefixFits:
    """Naive and corrected fits of the first n rows of one design, for a
    list of n and a set of response columns.

    Arrays are indexed [prefix, response column, parameter]; ``refused``
    marks the prefixes the rank guard turned down, whose estimates are NaN.
    ``counts`` holds the rows of each prefix in each cell.
    """

    refused: np.ndarray
    gamma_star: np.ndarray
    beta_c: np.ndarray
    beta0_c: np.ndarray
    counts: np.ndarray

    @property
    def beta_c_star(self) -> np.ndarray:
        return np.concatenate([self.gamma_star[..., :1], self.beta_c], axis=-1)

    @property
    def beta_full(self) -> np.ndarray:
        return np.concatenate([self.beta0_c[..., None], self.beta_c], axis=-1)


def fit_prefixes(design_star: np.ndarray, ys: np.ndarray, ns: Sequence[int],
                 pi_rows: np.ndarray, blocks: MomentBlocks,
                 inverse: np.ndarray | None = None) -> PrefixFits:
    """``ols_fit`` then ``correct`` on the first n rows, for every n in
    ``ns`` and every column of ``ys`` at once.

    Rows of ``design_star`` and ``pi_rows`` are rows of ``ys`` by default,
    or cells that hold row i at inverse[i].  Each prefix's cell counts and
    sums are one bincount per interval between the sorted cut points,
    summed up to each cut; all prefixes are QR-factored in one stacked call
    whose factors every response column shares.  Each fit equals the
    one-design path to rounding (about 1e-15 relative), not bit for bit.
    """
    design_star = np.asarray(design_star, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ns = np.asarray(ns, dtype=int)
    rows = len(ys)
    if ns.ndim != 1 or not ns.size or ns.min() < 1 or ns.max() > rows:
        raise ValidationError(f"prefix sizes must lie in 1..{rows}, got {ns.tolist()}")
    if ys.ndim != 2 or (inverse is None and len(design_star) != rows):
        raise ValidationError(f"need one response row per design row, got {ys.shape}")
    cuts = np.unique(ns)
    cells = len(design_star)
    inverse = np.arange(rows) if inverse is None else np.asarray(inverse)
    # row i < cuts[-1] lies in interval k when cuts[k-1] <= i < cuts[k]
    key = np.searchsorted(cuts, np.arange(cuts[-1]), side="right") * cells
    key += inverse[: cuts[-1]]

    def per_prefix(weights=None):
        total = np.bincount(key, weights, minlength=len(cuts) * cells)
        return total.reshape(len(cuts), cells).cumsum(axis=0)[np.searchsorted(cuts, ns)]

    counts = per_prefix()
    sums = np.stack([per_prefix(col) for col in ys[: cuts[-1]].T], axis=-1)
    _, gamma, refused = _solve_cells(design_star, counts, sums, ns)
    beta_c = gamma[..., 1:] @ blocks.correction.T
    sum_pi = counts @ np.asarray(pi_rows, dtype=float)
    sum_beta = np.einsum("kd,ksd->ks", sum_pi, beta_c)
    beta0_c = (sums.sum(axis=1) - sum_beta) / ns[:, None]  # (sum y - sum pi_i beta_c) / n
    return PrefixFits(refused, gamma, beta_c, beta0_c, counts)


def fit_corrected(spec: CategoricalSpec, ds: ObservedDataset, thetas: Sequence, ps: Sequence,
                  cells: Cells | None = None) -> CorrectedFit:
    """Full pipeline over the occupied cells of ``ds.w`` (``cells``, if
    already encoded): naive fit, moment blocks, posterior rows of the
    cells, correction."""
    require_fit_ready(spec, ds)
    if cells is None:
        cells = encode_cells(spec, ds.w)
    naive = ols_fit(cells.design_star, ds.y, cells.column_map, cells.inverse)
    blocks, _, pi = _mechanism(spec, thetas, ps, cells.categories)
    return correct(naive, ds.y, pi, blocks, cells.counts)


def _mechanism(spec: CategoricalSpec, thetas: Sequence, ps: Sequence, categories: np.ndarray):
    """What the correction reads of (theta, p): the moment blocks, the
    posteriors, and the posterior rows of ``categories`` (the occupied cells)."""
    blocks = build_moment_blocks(spec, thetas, ps)
    posteriors = [posterior_from(t, p) for t, p in zip(thetas, ps)]
    return blocks, posteriors, posterior_rows(posteriors, categories)
