"""Naive least-squares fit on the error-prone design and the two-stage
correction: slopes through the attenuation inverse, intercept through the
posterior-expected indicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import CategoricalSpec, Cells, ObservedDataset, encode_cells
from .errors import RankDeficient, ValidationError
from .misclass import posterior_rows
from .moments import MomentBlocks, mechanism

RANK_TOL = 1e-10


@dataclass(frozen=True)
class NaiveFit:
    """OLS result for the regression of y on the observed-category design.
    ``r`` is the R factor of the fit's QR: R^T R = W*^T W*.  The fit holds
    what it was fitted on: the rows of ``design_star``, each standing for
    ``counts`` observations whose y add up to ``sums`` and whose residuals'
    squares add up to ``rss``, and the ``column_map`` that names the
    columns (None if none was given)."""

    gamma_star: np.ndarray
    r: np.ndarray
    design_star: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    rss: np.ndarray
    column_map: dict | None

    @property
    def sigma2_w(self) -> float:
        """RSS / (n - m), with no BLAS sum over rows, which may follow the thread count."""
        return float(self.rss.sum()) / (self.counts.sum() - len(self.gamma_star))

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
    ``pi_rows`` are the posterior rows of the naive fit's design rows: one
    per occupied cell when the fit ran on cells.
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


def _solve_cells(design_star, counts, sums, n):
    """Least squares from cell counts and sums over a stack of fits: the QR
    of sqrt(c) U, whose R has R^T R = W*^T W*, and gamma = R^-1 Q^T (sums /
    sqrt(c)), 0 for an empty cell.  Zero rows pad sqrt(c) U to the column
    count, so R is square.  Returns R, gamma [..., response column,
    parameter] (NaN where refused) and the refused mask."""
    root = np.sqrt(counts)[..., None]
    rhs = np.divide(sums, root, out=np.zeros(sums.shape), where=root > 0)
    rows = root * design_star
    if (short := design_star.shape[-1] - rows.shape[-2]) > 0:
        rows = np.concatenate([rows, np.zeros((*rows.shape[:-2], short, rows.shape[-1]))], -2)
    q_mat, r_mat = np.linalg.qr(rows)
    refused = _refused(r_mat, n)
    # one singular R would fail the whole stacked solve
    solvable = np.where(refused[..., None, None], np.eye(r_mat.shape[-1]), r_mat)
    q_t = np.swapaxes(q_mat[..., : rhs.shape[-2], :], -1, -2)
    gamma = np.swapaxes(np.linalg.solve(solvable, q_t @ rhs), -1, -2)
    gamma[refused] = np.nan
    return r_mat, gamma, refused


def ols_fit(design_star: np.ndarray, y: np.ndarray, column_map: dict | None = None,
            inverse: np.ndarray | None = None, counts: np.ndarray | None = None) -> NaiveFit:
    """Least squares via QR factorization with a rank guard.  By default each
    row of ``design_star`` is one observation; with ``inverse`` its rows are
    cells, y[i] lies in cell inverse[i], and the fit reads only the cells'
    counts (counted from ``inverse`` unless given) and sums of y, and the
    sums of squared residuals."""
    design_star = np.asarray(design_star, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, m = len(y), design_star.shape[1]
    inverse = np.arange(len(design_star)) if inverse is None else inverse  # sqrt(1) U = U
    if counts is None:
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
    resid = y - (design_star @ gamma).take(inverse)
    rss = np.bincount(inverse, weights=np.square(resid, out=resid), minlength=len(design_star))
    return NaiveFit(gamma_star=gamma, r=r_mat, design_star=design_star, counts=counts,
                    sums=sums, rss=rss, column_map=column_map)


def correct(naive: NaiveFit, pi_rows: np.ndarray, blocks: MomentBlocks) -> CorrectedFit:
    """Correct a naive fit: the slopes through the attenuation inverse,
    beta_c = C gamma, then the intercept (sum y - (c^T pi) beta_c) / n from
    the fit's cell sums and counts, where row j of ``pi_rows`` is the
    posterior row of the naive.counts[j] observations in design row j."""
    pi_rows = np.asarray(pi_rows, dtype=float)
    beta_c = blocks.correction @ naive.slopes
    beta0_c = float((naive.sums.sum() - (naive.counts @ pi_rows) @ beta_c) / naive.counts.sum())
    return CorrectedFit(naive, beta_c, beta0_c, blocks, pi_rows)


@dataclass(frozen=True)
class PrefixFits:
    """Naive and corrected fits of the first n rows of one design, for a
    list of n and a set of response columns.

    Arrays are indexed [prefix, response column, parameter]; ``refused``
    marks the prefixes the rank guard turned down, whose estimates are NaN.
    ``design_star`` holds the cells every prefix was fitted on, ``counts``
    the rows of each prefix in each cell and ``r`` the R factor of each
    prefix's fit; ``pi_rows`` (one per cell) and ``blocks`` are the
    mechanism every prefix's correction read.
    """

    refused: np.ndarray
    gamma_star: np.ndarray
    beta_c: np.ndarray
    beta0_c: np.ndarray
    design_star: np.ndarray
    counts: np.ndarray
    r: np.ndarray
    pi_rows: np.ndarray
    blocks: MomentBlocks

    @property
    def beta_c_star(self) -> np.ndarray:
        return np.concatenate([self.gamma_star[..., :1], self.beta_c], axis=-1)

    @property
    def beta_full(self) -> np.ndarray:
        return np.concatenate([self.beta0_c[..., None], self.beta_c], axis=-1)


def fit_prefixes(design_star: np.ndarray, ys: np.ndarray, ns: Sequence[int],
                 pi_rows: np.ndarray, blocks: Sequence[MomentBlocks],
                 inverse: np.ndarray) -> list[PrefixFits]:
    """``ols_fit`` then ``correct`` on the first n rows, for every n in
    ``ns`` and every column of ``ys`` at once, over a stack of designs of
    one shape; returns one PrefixFits per design, in stack order.

    Every array has a leading design axis and ``blocks`` holds one
    MomentBlocks per design; one design is a stack of one.  Rows of
    ``design_star[j]`` and ``pi_rows[j]`` are cells; row i of ``ys[j]``
    lies in cell ``inverse[j, i]`` (np.arange for one cell per row).  One
    bincount gives the counts of every (design, interval between sorted cut
    points, cell), one more the sums of every response column, adding each
    bin's rows in row order; both are summed up to each cut.  One stacked
    QR factors every prefix of every design, and one matmul applies the
    stacked C's.  LAPACK works matrix by matrix, so each design's fits are
    bit for bit those it gets alone; they equal the one-design path to
    rounding (about 1e-15 relative), not bit for bit.
    """
    design_star = np.asarray(design_star, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ns = np.asarray(ns, dtype=int)
    if ys.ndim != 3 or design_star.ndim != 3:
        raise ValidationError(f"need stacks of designs and responses, got shapes "
                              f"{design_star.shape} and {ys.shape}")
    stack, rows, columns = ys.shape
    if ns.ndim != 1 or not ns.size or ns.min() < 1 or ns.max() > rows:
        raise ValidationError(f"prefix sizes must lie in 1..{rows}, got {ns.tolist()}")
    inverse = np.asarray(inverse)
    if inverse.shape != ys.shape[:2]:
        raise ValidationError(f"need one cell index per response row, got {inverse.shape} "
                              f"for responses of shape {ys.shape}")
    pi_rows = np.asarray(pi_rows, dtype=float)
    if not len(design_star) == len(pi_rows) == len(blocks) == stack:
        raise ValidationError(f"need one design, posterior table and MomentBlocks per response "
                              f"stack of {stack}, got {len(design_star)}, {len(pi_rows)} and "
                              f"{len(blocks)}")
    cuts = np.unique(ns)
    cells = design_star.shape[1]
    bins = stack * len(cuts) * cells
    # row i < cuts[-1] of design j lies in interval k when cuts[k-1] <= i < cuts[k]
    key = np.searchsorted(cuts, np.arange(cuts[-1]), side="right") * cells
    key = key + inverse[:, : cuts[-1]] + (np.arange(stack) * len(cuts) * cells)[:, None]
    at = np.searchsorted(cuts, ns)

    def per_prefix(total, *trailing):
        return total.reshape(stack, len(cuts), cells, *trailing).cumsum(axis=1)[:, at]

    counts = per_prefix(np.bincount(key.ravel(), minlength=bins))
    sums = per_prefix(np.bincount((key[..., None] * columns + np.arange(columns)).ravel(),
                                  ys[:, : cuts[-1]].ravel(), minlength=bins * columns), columns)
    r_mat, gamma, refused = _solve_cells(design_star[:, None], counts, sums, ns)
    corrections = np.stack([b.correction for b in blocks])
    beta_c = gamma[..., 1:] @ np.swapaxes(corrections, -1, -2)[:, None]
    sum_beta = np.einsum("jkd,jksd->jks", counts @ pi_rows, beta_c)
    beta0_c = (sums.sum(axis=2) - sum_beta) / ns[:, None]  # (sum y - sum pi_i beta_c) / n
    return [PrefixFits(*fit) for fit in zip(refused, gamma, beta_c, beta0_c, design_star,
                                             counts, r_mat, pi_rows, blocks)]


def fit_cells(spec: CategoricalSpec, cells: Cells, y: np.ndarray, thetas: Sequence,
              ps: Sequence) -> CorrectedFit:
    """Naive fit, moment blocks, posterior rows of the cells and correction,
    over cells already found (by ``encode_cells``, or ``validate_dataset``'s
    report): y[i] lies in cell ``cells.inverse[i]``."""
    naive = ols_fit(cells.design_star, y, cells.column_map, cells.inverse, cells.counts)
    blocks, posteriors = mechanism(spec, thetas, ps)
    return correct(naive, posterior_rows(posteriors, cells.categories), blocks)


def fit_corrected(spec: CategoricalSpec, ds: ObservedDataset, thetas: Sequence,
                  ps: Sequence) -> CorrectedFit:
    """Full pipeline over the occupied cells of ``ds.w``: ``fit_cells`` on
    the cells ``encode_cells`` finds."""
    return fit_cells(spec, encode_cells(spec, ds.w), ds.y, thetas, ps)
