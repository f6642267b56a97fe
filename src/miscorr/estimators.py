"""Naive least-squares fit on the error-prone design and the two-stage
correction: slopes through the attenuation inverse, intercept through the
posterior-expected indicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import (
    CategoricalSpec,
    DesignBundle,
    ObservedDataset,
    encode_dummy,
    require_fit_ready,
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
    xtx_inv: np.ndarray
    rss: float

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


def _describe_column(column_map: dict | None, col: int) -> str:
    if column_map:
        for (k, level), idx in column_map.items():
            if idx == col - 1:  # col 0 is the intercept
                return f" (covariate {k}, level {level})"
    return ""


def _refused(r_mat: np.ndarray, n) -> np.ndarray:
    """The rank guard, over one R factor or a stack of them: True where the
    fit has no more rows than columns, or where an |R| diagonal entry falls
    below RANK_TOL times the largest one (taken as at least 1)."""
    diag = np.abs(np.diagonal(r_mat, axis1=-2, axis2=-1))
    largest = np.maximum(diag.max(axis=-1, initial=0.0), 1.0)
    collinear = diag.min(axis=-1, initial=np.inf) < RANK_TOL * largest
    return (np.asarray(n) <= r_mat.shape[-1]) | collinear


def ols_fit(design_star: np.ndarray, y: np.ndarray, column_map: dict | None = None) -> NaiveFit:
    """Least squares via QR factorization with a rank guard."""
    design_star = np.asarray(design_star, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, m = design_star.shape
    q_mat, r_mat = np.linalg.qr(design_star)
    if _refused(r_mat, n):
        if n <= m:
            raise RankDeficient(f"need more than {m} rows, got {n}")
        col = int(np.argmin(np.abs(np.diag(r_mat))))
        raise RankDeficient(
            f"design column {col} is collinear{_describe_column(column_map, col)}"
        )
    gamma = np.linalg.solve(r_mat, q_mat.T @ y)
    resid = y - design_star @ gamma
    rss = float(resid @ resid)
    r_inv = np.linalg.solve(r_mat, np.eye(m))
    xtx_inv = r_inv @ r_inv.T
    return NaiveFit(
        gamma_star=gamma, sigma2_w=rss / (n - m), xtx_inv=xtx_inv, rss=rss
    )


def correct_slopes(naive: NaiveFit, blocks: MomentBlocks) -> np.ndarray:
    """Undo the asymptotic attenuation of the naive slopes."""
    return blocks.correction @ naive.slopes


def correct_intercept(y: np.ndarray, pi_rows: np.ndarray, beta_c: np.ndarray) -> float:
    """Mean of y minus the posterior-expected indicator row times the
    corrected slopes."""
    y = np.asarray(y, dtype=float).ravel()
    return float(np.mean(y - np.asarray(pi_rows) @ np.asarray(beta_c)))


def correct(
    naive: NaiveFit, y: np.ndarray, pi_rows: np.ndarray, blocks: MomentBlocks
) -> CorrectedFit:
    """Correct a naive fit: slopes through the attenuation inverse, then the
    intercept through the posterior rows of the same observations."""
    beta_c = correct_slopes(naive, blocks)
    beta0_c = correct_intercept(y, pi_rows, beta_c)
    return CorrectedFit(
        naive=naive, beta_c=beta_c, beta0_c=beta0_c, blocks=blocks, pi_rows=pi_rows
    )


@dataclass(frozen=True)
class PrefixFits:
    """Naive and corrected fits of the first n rows of one design, for a
    list of n and a set of response columns.

    Arrays are indexed [prefix, response column, parameter]; ``refused``
    marks the prefixes the rank guard turned down, whose estimates are NaN.
    """

    refused: np.ndarray
    gamma_star: np.ndarray
    beta_c: np.ndarray
    beta0_c: np.ndarray

    @property
    def beta_c_star(self) -> np.ndarray:
        return np.concatenate([self.gamma_star[..., :1], self.beta_c], axis=-1)

    @property
    def beta_full(self) -> np.ndarray:
        return np.concatenate([self.beta0_c[..., None], self.beta_c], axis=-1)


def fit_prefixes(
    design_star: np.ndarray,
    ys: np.ndarray,
    ns: Sequence[int],
    pi_rows: np.ndarray,
    blocks: MomentBlocks,
) -> PrefixFits:
    """``ols_fit`` then ``correct`` on the first n rows, for every n in
    ``ns`` and every column of ``ys`` at once.

    The zero-padded prefixes of the design are QR-factored in one stacked
    call, and all response columns share their prefix's factors.  The
    corrected intercept is (sum y - sum pi_(i) beta_c) / n over the prefix.
    Each fit equals the one-design path to rounding (about 1e-15 relative),
    not bit for bit.
    """
    design_star = np.asarray(design_star, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ns = np.asarray(ns, dtype=int)
    rows, m = design_star.shape
    if ns.ndim != 1 or not ns.size or ns.min() < 1 or ns.max() > rows:
        raise ValidationError(f"prefix sizes must lie in 1..{rows}, got {ns.tolist()}")
    if ys.ndim != 2 or len(ys) != rows:
        raise ValidationError(f"need one response row per design row, got {ys.shape}")
    top = int(ns.max())
    in_prefix = (np.arange(top) < ns[:, None]).astype(float)
    stack = design_star[:top] * in_prefix[:, :, None]
    if top < m:  # zero rows up to m, so that every R factor is m x m
        stack = np.pad(stack, ((0, 0), (0, m - top), (0, 0)))
    q_mat, r_mat = np.linalg.qr(stack)
    refused = _refused(r_mat, ns)
    r_mat[refused] = np.eye(m)  # one singular R would fail the whole stacked solve
    q_t = q_mat[:, :top].transpose(0, 2, 1)
    gamma = np.linalg.solve(r_mat, q_t @ ys[:top]).transpose(0, 2, 1)
    gamma[refused] = np.nan
    beta_c = gamma[..., 1:] @ blocks.correction.T
    sum_pi = in_prefix @ np.asarray(pi_rows, dtype=float)[:top]
    sum_beta = np.einsum("kd,ksd->ks", sum_pi, beta_c)
    beta0_c = (in_prefix @ ys[:top] - sum_beta) / ns[:, None]
    return PrefixFits(refused=refused, gamma_star=gamma, beta_c=beta_c, beta0_c=beta0_c)


def fit_corrected(
    spec: CategoricalSpec,
    ds: ObservedDataset,
    thetas: Sequence,
    ps: Sequence,
    bundle: DesignBundle | None = None,
) -> CorrectedFit:
    """Full pipeline: encode (unless ``bundle`` already holds the encoded
    ``ds.w``), naive fit, moment blocks, posterior rows, correction."""
    require_fit_ready(spec, ds)
    if bundle is None:
        bundle = encode_dummy(spec, ds.w)
    naive = ols_fit(bundle.design_star, ds.y, bundle.column_map)
    blocks = build_moment_blocks(spec, thetas, ps)
    posteriors = [posterior_from(t, p) for t, p in zip(thetas, ps)]
    return correct(naive, ds.y, posterior_rows(posteriors, ds.w), blocks)
