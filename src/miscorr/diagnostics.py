"""Closed-form conditional bias and variance of the corrected estimators,
given the observed design, the error mechanism, and a supplied truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .estimators import _refused, _weighted_rows
from .moments import MomentBlocks


@dataclass(frozen=True)
class BiasReport:
    """Conditional bias of (gamma0_hat, beta_c_hat) and of the corrected
    intercept, for a fixed observed design."""

    b_star: np.ndarray
    b0: float


@dataclass(frozen=True)
class VarianceReport:
    var_gamma_star: np.ndarray
    var_beta_c_star: np.ndarray
    var_beta0_c: float


def _gram_inverse(design_star_w, counts):
    """The design as floats, the observations behind each of its rows (one
    unless ``counts`` makes the rows cells) and (W*^T W*)^-1 = R^-1 R^-T from
    the R factor of sqrt(c) U, behind the rank guard of the fit."""
    w_star = np.asarray(design_star_w, dtype=float)
    counts = np.ones(len(w_star)) if counts is None else np.asarray(counts, dtype=float)
    r_mat = np.linalg.qr(_weighted_rows(w_star, counts), mode="r")
    if _refused(r_mat, counts.sum()):
        raise RankDeficient("observed design is collinear")
    r_inv = np.linalg.solve(r_mat, np.eye(len(r_mat)))
    return w_star, counts, r_inv @ r_inv.T


def conditional_bias(
    design_star_w: np.ndarray,
    pi_star: np.ndarray,
    z_star: np.ndarray,
    beta_star_true: np.ndarray,
    counts=None,
) -> BiasReport:
    """Bias of (gamma0_hat, beta_c_hat) given the observed design:
    (Z (W*^T W*)^-1 W*^T pi* - I) beta*.

    The intercept-correction bias is the derivation-consistent form
    B0 = pi_bar (beta - E[beta_c_hat | W]) with pi_bar = mean_i pi_(i).
    Row j of the design and of ``pi_star`` may stand for counts[j]
    identical observations.
    """
    w_star, counts, xtx_inv = _gram_inverse(design_star_w, counts)
    pi_star = np.asarray(pi_star, dtype=float)
    beta_star_true = np.asarray(beta_star_true, dtype=float).ravel()
    transfer = z_star @ xtx_inv @ (w_star.T * counts) @ pi_star
    expected = transfer @ beta_star_true
    b_star = expected - beta_star_true
    pi_bar = counts @ pi_star[:, 1:] / counts.sum()
    b0 = float(pi_bar @ (beta_star_true[1:] - expected[1:]))
    return BiasReport(b_star=b_star, b0=b0)


def variance_report(
    design_star_w: np.ndarray,
    blocks: MomentBlocks,
    pi_rows: np.ndarray,
    sigma2: float,
    counts=None,
) -> VarianceReport:
    """Conditional variances of the naive and corrected estimators.

    ``sigma2`` is the caller's plug-in for Var(Y_i | W), taken as the same
    for every observation; both the fitted residual variance and a known
    noise variance are valid choices.  theta and p are treated as known.
    Row j of the design and of ``pi_rows`` may stand for counts[j]
    identical observations.

    ``var_beta0_c`` is the exact variance of the corrected intercept given
    W under that homoscedastic plug-in.  The intercept is linear in y,
    beta0_c = mean(y) - pi_bar^T C gamma_hat, and mean(y) is uncorrelated
    with the slopes, so the variance is
    sigma2 (1/n + pi_bar^T C A^-1 C^T pi_bar) with A = W^T (W - W_bar), the
    centered Gram matrix of the slopes; A^-1 is the slope block of
    (W*^T W*)^-1.
    """
    w_star, counts, xtx_inv = _gram_inverse(design_star_w, counts)
    n = counts.sum()
    z = blocks.z_star
    v_bar = counts @ np.asarray(pi_rows, dtype=float) @ blocks.correction / n  # C^T pi_bar
    return VarianceReport(
        var_gamma_star=xtx_inv * sigma2,
        var_beta_c_star=sigma2 * (z @ xtx_inv @ z.T),
        var_beta0_c=float(sigma2 * (1.0 / n + v_bar @ xtx_inv[1:, 1:] @ v_bar)),
    )


def var_beta0_c_uncorrelated(
    design_star_w: np.ndarray,
    blocks: MomentBlocks,
    pi_rows: np.ndarray,
    sigma2: float,
    counts=None,
) -> float:
    """Corrected-intercept variance summed over per-observation terms
    y_i - pi_(i) beta_c_hat as if they were uncorrelated.

    Every term shares the same beta_c_hat, so this drops the i != j
    cross-covariances and falls short of the exact conditional variance
    in ``variance_report``; it is kept as the expression whose shortfall
    ``simkit.intercept_variance_curve`` measures.  With v_i = C^T pi_(i)
    and A as in ``variance_report``, term i is
    sigma2 (1 + v_i A^-1 v_i - 2 (W_i - W_bar) A^-1 v_i); row j of the
    design and of ``pi_rows`` may stand for counts[j] such terms.
    """
    w_star, counts, xtx_inv = _gram_inverse(design_star_w, counts)
    n = counts.sum()
    w_centered = w_star[:, 1:] - counts @ w_star[:, 1:] / n
    v_rows = np.asarray(pi_rows, dtype=float) @ blocks.correction
    u = v_rows @ xtx_inv[1:, 1:]  # v_i A^-1; A is symmetric
    per_row = 1.0 + np.einsum("ip,ip->i", u, v_rows - 2.0 * w_centered)
    return float(sigma2 * (counts @ per_row) / n**2)


def conditional_response_variance(
    posteriors, w: np.ndarray, beta: np.ndarray, sigma: float
) -> np.ndarray:
    """Exact Var(Y_i | W_i) when the true categories are latent:
    sigma^2 plus the posterior covariance of the indicators through beta.

    ``beta`` is the slope vector (no intercept), covariate-major.
    """
    w = np.asarray(w, dtype=int)
    if w.ndim == 1:
        w = w[:, None]
    beta = np.asarray(beta, dtype=float).ravel()
    out = np.full(w.shape[0], float(sigma) ** 2)
    off = 0
    for k, post in enumerate(posteriors):
        dk = post.n_levels - 1
        bk = beta[off : off + dk]
        probs = post.pi[w[:, k], :dk]
        quad = probs @ bk**2 - (probs @ bk) ** 2
        out += quad
        off += dk
    return out
