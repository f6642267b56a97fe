"""Naive least-squares fit on the error-prone design and the two-stage
correction: slopes through the attenuation inverse, intercept through the
posterior-expected indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .categorical import CategoricalSpec, Cells, ObservedDataset, encode_cells
from .errors import RankDeficient, ValidationError
from .misclass import posterior_rows
from .moments import MomentBlocks, mechanism

RANK_TOL = 1e-10


def _collinear(r_mat: np.ndarray) -> np.ndarray:
    """The rank guard's one test, over one R factor or a stack of them: True
    at each column whose |R| diagonal entry falls below RANK_TOL times the
    largest one (taken as at least 1)."""
    diag = np.abs(np.diagonal(r_mat, axis1=-2, axis2=-1))
    return diag < RANK_TOL * np.maximum(diag.max(axis=-1, initial=0.0), 1.0)[..., None]


def _solve_cells(design_star, counts, sums, n):
    """Least squares from cell counts and sums over a stack of fits: the QR
    of sqrt(c) U, whose R has R^T R = W*^T W*, and gamma = R^-1 Q^T (sums /
    sqrt(c)), 0 for an empty cell.  Zero rows pad sqrt(c) U to the column
    count, so R is square.  Returns R, gamma [..., response column,
    parameter] (NaN where refused) and the refused mask: a fit of no more
    rows than columns, or with a column that ``_collinear`` flags."""
    root = np.sqrt(counts)[..., None]
    rhs = np.divide(sums, root, out=np.zeros(sums.shape), where=root > 0)
    rows = root * design_star
    if (short := design_star.shape[-1] - rows.shape[-2]) > 0:
        rows = np.concatenate([rows, np.zeros((*rows.shape[:-2], short, rows.shape[-1]))], -2)
    q_mat, r_mat = np.linalg.qr(rows)
    refused = (np.asarray(n) <= r_mat.shape[-1]) | _collinear(r_mat).any(axis=-1)
    # one singular R would fail the whole stacked solve
    solvable = np.where(refused[..., None, None], np.eye(r_mat.shape[-1]), r_mat)
    q_t = np.swapaxes(q_mat[..., : rhs.shape[-2], :], -1, -2)
    gamma = np.swapaxes(np.linalg.solve(solvable, q_t @ rhs), -1, -2)
    gamma[refused] = np.nan
    return r_mat, gamma, refused


def _raise_refused(n: int, m: int, r_mat=None, spec: CategoricalSpec | None = None) -> None:
    """Raise the RankDeficient of a single fit of n rows and m columns where
    the rank guard refuses it: too few rows, else the first column that
    ``_collinear`` flags in ``r_mat``, named by its covariate and level where
    ``spec`` gives the layout (column 0, the intercept, has |R| = sqrt(n))."""
    if n <= m:
        raise RankDeficient(f"need more than {m} rows, got {n}")
    if r_mat is not None and (flagged := _collinear(r_mat)).any():
        col = int(np.argmax(flagged))
        where = "" if spec is None else " (covariate %d, level %d)" % spec.layout[2][col - 1]
        raise RankDeficient(f"design column {col} is collinear{where}")


def ols_fit(design_star: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the rows of ``design_star``, one
    observation per row, from ``_solve_cells``, the solver of every fit;
    raises RankDeficient where the rank guard refuses, as a single fit does,
    naming a collinear column by its number alone."""
    design_star = np.asarray(design_star, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if len(y) != len(design_star):
        raise ValueError(f"need one response per design row, got {len(y)} for {len(design_star)}")
    r_mat, gamma, _ = _solve_cells(design_star, np.ones(len(y)), y[:, None], len(y))
    _raise_refused(len(y), design_star.shape[1], r_mat)
    return gamma[0]


@dataclass(frozen=True)
class PrefixFits:
    """Naive and corrected fits of the first n rows of one design, for a
    list of n and a set of response columns.  A single fit is a stack of
    one: one prefix of every row and one response column, whose estimates
    are the [0, 0] entries.

    Arrays are indexed [prefix, response column, parameter]; ``refused``
    marks the prefixes the rank guard turned down, whose estimates are NaN.
    ``design_star`` holds the cells every prefix was fitted on, ``counts``
    the rows of each prefix in each cell and ``r`` the R factor of each
    prefix's fit; ``pi_rows`` (one per cell) and ``blocks`` are the
    mechanism every prefix's correction read.  ``rss`` [prefix, response
    column, cell] holds each cell's sum of squared residuals where the fit
    took them (``fit_cells``), and is None otherwise.
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
    rss: np.ndarray | None = None

    @property
    def beta_c_star(self) -> np.ndarray:
        """The naive intercept with the corrected slopes."""
        return np.concatenate([self.gamma_star[..., :1], self.beta_c], axis=-1)

    @property
    def beta_full(self) -> np.ndarray:
        """The corrected intercept with the corrected slopes."""
        return np.concatenate([self.beta0_c[..., None], self.beta_c], axis=-1)

    @property
    def sigma2_w(self) -> np.ndarray:
        """RSS / (n - m) per [prefix, response column] of a fit that took
        ``rss``: a sum over the cells, with no BLAS sum over rows, whose
        order may follow the thread count."""
        return self.rss.sum(axis=-1) / (self.counts.sum(axis=-1)[:, None] - self.r.shape[-1])


def fit_prefixes(design_star: np.ndarray, ys: np.ndarray, ns: Sequence[int],
                 pi_rows: np.ndarray, blocks: Sequence[MomentBlocks],
                 inverse: np.ndarray) -> list[PrefixFits]:
    """Least squares and its correction on the first n rows, for every n in
    ``ns`` and every column of ``ys`` at once, over a stack of designs of
    one shape; returns one PrefixFits per design, in stack order.  This is
    the one place the correction is written: the slopes beta_c = C gamma,
    with C from the moment blocks, and the intercept
    (sum y - (c^T pi) beta_c) / n from each prefix's cell counts c and sums.

    Every array has a leading design axis and ``blocks`` holds one
    MomentBlocks per design; one design is a stack of one.  Rows of
    ``design_star[j]`` and ``pi_rows[j]`` are cells; row i of ``ys[j]``
    lies in cell ``inverse[j, i]`` (np.arange for one cell per row).  One
    bincount gives the counts of every (design, interval between sorted cut
    points, cell), one per response column its sums, adding each bin's rows
    in row order; both are summed up to each cut.  With one design and one
    cut the bin is the cell, keyed by ``inverse`` itself.  One stacked
    QR factors every prefix of every design, and one matmul applies the
    stacked C's.  LAPACK works matrix by matrix, so each design's fits are
    bit for bit those it gets alone; they equal ``ols_fit`` on each
    prefix's rows to rounding (about 1e-15 relative), not bit for bit.
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
    key = inverse[:, : cuts[-1]]
    if bins > cells:  # row i of design j lies in bin (j, k, cell) when cuts[k-1] <= i < cuts[k]
        offsets = (np.arange(stack * len(cuts)) * cells).reshape(stack, len(cuts))
        key = key + np.repeat(offsets, np.diff(cuts, prepend=0), axis=1)
    key = key.ravel()
    at = np.searchsorted(cuts, ns)

    def per_prefix(total, *trailing):
        return total.reshape(stack, len(cuts), cells, *trailing).cumsum(axis=1)[:, at]

    counts = per_prefix(np.bincount(key, minlength=bins))
    sums = per_prefix(np.stack([np.bincount(key, ys[:, : cuts[-1], s].ravel(), bins)
                                for s in range(columns)], axis=-1), columns)
    return _fit_sums(design_star, counts, sums, ns, pi_rows, blocks)


def _fit_sums(design_star, counts, sums, ns, pi_rows, blocks) -> list[PrefixFits]:
    """``fit_prefixes`` from each prefix's cell counts [design, prefix, cell]
    and sums [design, prefix, cell, response column]: the stacked solve and
    the correction.  ``fit_cells`` enters here with the counts its cells hold."""
    r_mat, gamma, refused = _solve_cells(design_star[:, None], counts, sums, ns)
    corrections = np.stack([b.correction for b in blocks])
    beta_c = gamma[..., 1:] @ np.swapaxes(corrections, -1, -2)[:, None]
    sum_beta = np.einsum("jkd,jksd->jks", counts @ pi_rows, beta_c)
    beta0_c = (sums.sum(axis=2) - sum_beta) / ns[:, None]  # (sum y - sum pi_i beta_c) / n
    return [PrefixFits(*fit) for fit in zip(refused, gamma, beta_c, beta0_c, design_star,
                                             counts, r_mat, pi_rows, blocks)]


def fit_cells(spec: CategoricalSpec, cells: Cells, y: np.ndarray, thetas: Sequence,
              ps: Sequence) -> PrefixFits:
    """A single fit over cells already found (by ``encode_cells``, or
    ``validate_dataset``'s report), y[i] lying in cell ``cells.inverse[i]``:
    the mechanism, the posterior rows of the cells, then ``fit_prefixes``
    on the stack of one, all n rows one prefix and y one response column,
    entered after its bincounts: the counts are the cells', y's sums one
    bincount over ``cells.inverse``.
    Raises RankDeficient where the rank guard refuses; fills ``rss`` from
    one pass over the residuals y - (U gamma)[cell of each row]."""
    y = np.asarray(y, dtype=float)
    n, m = len(y), cells.design_star.shape[1]
    _raise_refused(n, m)  # before the mechanism, and before a fit of no rows divides by n
    blocks, posteriors = mechanism(spec, thetas, ps)
    pi = posterior_rows(posteriors, cells.categories)
    sums = np.bincount(cells.inverse, y, len(cells.counts))
    [fit] = _fit_sums(cells.design_star[None], cells.counts[None, None],
                      sums[None, None, :, None], np.array([n]), pi[None], [blocks])
    _raise_refused(n, m, fit.r[0], spec)
    resid = (fit.design_star @ fit.gamma_star[0, 0]).take(cells.inverse)
    np.square(np.subtract(y, resid, out=resid), out=resid)
    rss = np.bincount(cells.inverse, resid, len(fit.design_star))
    return replace(fit, rss=rss[None, None])


def fit_corrected(spec: CategoricalSpec, ds: ObservedDataset, thetas: Sequence,
                  ps: Sequence) -> PrefixFits:
    """Full pipeline over the occupied cells of ``ds.w``: ``fit_cells`` on
    the cells ``encode_cells`` finds."""
    return fit_cells(spec, encode_cells(spec, ds.w), ds.y, thetas, ps)
