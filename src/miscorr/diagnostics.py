"""Closed-form conditional bias and variance of the naive and corrected
estimators given the observed design: the bias from the error mechanism and
a supplied truth alone, the variances from the PrefixFits a fit returned
(a single fit is a stack of one): its cells, each prefix's counts and R
factor, its posterior rows and moment blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimators import PrefixFits
from .misclass import posterior_rows


@dataclass(frozen=True)
class BiasReport:
    """Conditional bias of (gamma0_hat, beta_c_hat) and of the corrected
    intercept, for a fixed observed design."""

    b_star: np.ndarray
    b0: float


@dataclass(frozen=True)
class VarianceReport:
    """Variances indexed [prefix, response column, ...] like the fit's
    estimates (NaN where the prefix was refused)."""

    var_gamma_star: np.ndarray
    var_beta_c_star: np.ndarray
    var_beta0_c: np.ndarray


def _stacked(fits: PrefixFits, sigma2):
    """What both variances read of every prefix of ``fits``: the plug-in
    broadcast to [prefix, response column], refused unless finite and
    non-negative (0 is a perfect fit's), the cell counts as a row, n, and
    (W*^T W*)^-1 = R^-1 R^-T in one stacked solve, with the identity for a
    refused prefix's R, so that one singular R fails none of the rest, and
    NaN written there."""
    sigma2 = np.broadcast_to(np.asarray(sigma2, dtype=float), fits.gamma_star.shape[:2])
    if (bad := sigma2[~(np.isfinite(sigma2) & (sigma2 >= 0))]).size:
        raise ValidationError(f"the sigma2 plug-in must be finite and non-negative, got {bad[0]}")
    eye = np.broadcast_to(np.eye(fits.r.shape[-1]), fits.r.shape)  # numpy < 2 reads 2-D as vectors
    r_inv = np.linalg.solve(np.where(fits.refused[:, None, None], eye, fits.r), eye)
    xtx_inv = r_inv @ np.swapaxes(r_inv, -1, -2)
    xtx_inv[fits.refused] = np.nan
    return sigma2, fits.counts[:, None], fits.counts.sum(axis=-1), xtx_inv


def conditional_bias(fit: PrefixFits, beta_star_true: np.ndarray) -> BiasReport:
    """Bias of (gamma0_hat, beta_c_hat) and of the corrected intercept given
    the observed design.  E[Y | W] = beta0 + sum_k pi_k(W_k)^T beta_k is
    additive in the observed categories, so OLS on a full-rank design
    recovers it, C undoes the attenuation, and only the naive intercept is
    biased, by sum_k pi_k(ref)^T beta_k.  This holds for a fit whose
    posterior rows and blocks come from one mechanism: every fit
    ``fit_prefixes`` returns, whatever its prefix and response column.
    """
    beta_star_true = np.asarray(beta_star_true, dtype=float).ravel()
    if len(beta_star_true) != (m := fit.design_star.shape[1]):
        raise ValidationError(f"need a true beta* of {m} parameters, got {len(beta_star_true)}")
    b_star = np.zeros_like(beta_star_true)
    b_star[0] = fit.blocks.pi_ref @ beta_star_true[1:]
    return BiasReport(b_star=b_star, b0=0.0)


def variance_report(fits: PrefixFits, sigma2) -> VarianceReport:
    """Conditional variances of the naive and corrected estimators of every
    [prefix, response column] of ``fits``, NaN where the prefix was refused.

    ``sigma2`` is the caller's plug-in for Var(Y_i | W), taken as the same
    for every observation and broadcast to [prefix, response column]; both
    the fitted residual variance (``fits.sigma2_w`` of a single fit) and a
    known noise variance are valid choices.  theta and p are treated as
    known.

    ``var_beta0_c`` is the exact variance of the corrected intercept given
    W under that homoscedastic plug-in.  The intercept is linear in y,
    beta0_c = mean(y) - pi_bar^T C gamma_hat, and mean(y) is uncorrelated
    with the slopes, so the variance is
    sigma2 (1/n + pi_bar^T C A^-1 C^T pi_bar) with A = W^T (W - W_bar), the
    centered Gram matrix of the slopes; A^-1 is the slope block of
    (W*^T W*)^-1.
    """
    sigma2, counts, n, xtx_inv = _stacked(fits, sigma2)
    z, s = fits.blocks.z_star, sigma2[..., None, None]
    v_bar = counts @ fits.pi_rows @ fits.blocks.correction / n[:, None, None]  # C^T pi_bar
    v_a_v = (v_bar @ xtx_inv[:, 1:, 1:] @ np.swapaxes(v_bar, -1, -2))[:, 0, 0]
    return VarianceReport(var_gamma_star=xtx_inv[:, None] * s,
                          var_beta_c_star=s * (z @ xtx_inv @ z.T)[:, None],
                          var_beta0_c=sigma2 * (1.0 / n + v_a_v)[:, None])


def var_beta0_c_uncorrelated(fits: PrefixFits, sigma2) -> np.ndarray:
    """Corrected-intercept variance summed over per-observation terms
    y_i - pi_(i) beta_c_hat as if they were uncorrelated, indexed [prefix,
    response column] with the plug-in ``sigma2`` broadcast to that shape
    (NaN where the prefix was refused).

    Every term shares the same beta_c_hat, so this drops the i != j
    cross-covariances and falls short of the exact conditional variance
    in ``variance_report``; it is kept as the expression whose shortfall
    ``simkit.intercept_variance_curve`` measures.  With v_i = C^T pi_(i)
    and A as in ``variance_report``, term i is
    sigma2 (1 + v_i A^-1 v_i - 2 (W_i - W_bar) A^-1 v_i); row j of
    fits.design_star stands for fits.counts[k, j] such terms.
    """
    sigma2, counts, n, xtx_inv = _stacked(fits, sigma2)
    w_star = fits.design_star[:, 1:]
    v_rows = fits.pi_rows @ fits.blocks.correction
    w_centered = w_star - counts @ w_star / n[:, None, None]
    u = v_rows @ xtx_inv[:, 1:, 1:]  # v_i A^-1; A is symmetric
    per_row = 1.0 + np.einsum("kip,kip->ki", u, v_rows - 2.0 * w_centered)
    return sigma2 * (counts @ per_row[..., None])[:, 0] / n[:, None] ** 2


def conditional_response_variance(
    posteriors, w: np.ndarray, beta: np.ndarray, sigma: float
) -> np.ndarray:
    """Exact Var(Y_i | W_i) when the true categories are latent:
    sigma^2 plus the posterior covariance of the indicators through beta.

    ``beta`` is the slope vector (no intercept), covariate-major.  The
    posterior probabilities are ``misclass.posterior_rows`` of w, which
    refuses a w out of range.
    """
    rows = posterior_rows(posteriors, w)
    beta = np.asarray(beta, dtype=float).ravel()
    out = np.full(len(rows), np.float64(sigma) ** 2)  # numpy reports an overflow
    off = 0
    for post in posteriors:
        dk = post.n_levels - 1
        bk, probs = beta[off : off + dk], rows[:, off : off + dk]
        out += probs @ bk**2 - (probs @ bk) ** 2
        off += dk
    return out
