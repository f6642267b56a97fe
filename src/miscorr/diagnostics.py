"""Closed-form conditional bias and variance of the corrected estimators,
given the observed design, the error mechanism, and a supplied truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .estimators import RANK_TOL
from .moments import MomentBlocks, _reciprocal_cond


@dataclass(frozen=True)
class BiasReport:
    """Conditional bias of (gamma0_hat, beta_c_hat) and of the corrected
    intercept, for a fixed observed design."""

    b_star: np.ndarray
    b0: float
    pi_star: np.ndarray
    expected_beta_c_star: np.ndarray


@dataclass(frozen=True)
class VarianceReport:
    var_gamma_star: np.ndarray
    var_beta_c_star: np.ndarray
    var_beta0_c: float
    a_matrix: np.ndarray
    v_rows: np.ndarray


def _solve_spd(design_star: np.ndarray):
    xtx = design_star.T @ design_star
    try:
        xtx_inv = np.linalg.inv(xtx)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("observed design is collinear") from exc
    if not np.isfinite(xtx_inv).all():
        raise RankDeficient("observed design is collinear")
    return xtx_inv


def conditional_bias(
    design_star_w: np.ndarray,
    pi_star: np.ndarray,
    z_star: np.ndarray,
    beta_star_true: np.ndarray,
) -> BiasReport:
    """Bias of (gamma0_hat, beta_c_hat) given the observed design:
    (Z (W*^T W*)^-1 W*^T pi* - I) beta*.

    The intercept-correction bias is the derivation-consistent form
    B0 = mean_i pi_(i) (beta - E[beta_c_hat | W]).
    """
    w_star = np.asarray(design_star_w, dtype=float)
    pi_star = np.asarray(pi_star, dtype=float)
    beta_star_true = np.asarray(beta_star_true, dtype=float).ravel()
    xtx_inv = _solve_spd(w_star)
    transfer = z_star @ xtx_inv @ w_star.T @ pi_star
    expected = transfer @ beta_star_true
    b_star = expected - beta_star_true
    pi_rows = pi_star[:, 1:]
    b0 = intercept_bias(pi_rows, beta_star_true[1:], expected[1:])
    return BiasReport(
        b_star=b_star, b0=b0, pi_star=pi_star, expected_beta_c_star=expected
    )


def intercept_bias(
    pi_rows: np.ndarray, beta_true: np.ndarray, expected_beta_c: np.ndarray
) -> float:
    """B0 = mean_i pi_(i) (beta - E[beta_c_hat | W])."""
    pi_rows = np.asarray(pi_rows, dtype=float)
    gap = np.asarray(beta_true, dtype=float) - np.asarray(expected_beta_c, dtype=float)
    return float(np.mean(pi_rows @ gap))


def variance_report(
    design_star_w: np.ndarray,
    blocks: MomentBlocks,
    pi_rows: np.ndarray,
    sigma2: float,
) -> VarianceReport:
    """Conditional variances of the naive and corrected estimators.

    ``sigma2`` is the caller's plug-in for Var(Y_i | W); both the fitted
    residual variance and a known noise variance are valid choices.
    """
    w_star = np.asarray(design_star_w, dtype=float)
    pi_rows = np.asarray(pi_rows, dtype=float)
    n = w_star.shape[0]
    w = w_star[:, 1:]
    xtx_inv = _solve_spd(w_star)
    var_gamma_star = xtx_inv * sigma2
    z = blocks.z_star
    var_beta_c_star = sigma2 * (z @ xtx_inv @ z.T)

    w_bar = w.mean(axis=0)
    w_centered = w - w_bar
    a_matrix = w.T @ w_centered
    s_matrix = w_centered.T @ w_centered
    if _reciprocal_cond(a_matrix) < RANK_TOL:
        raise RankDeficient("all observed indicator rows are identical")
    v_rows = pi_rows @ blocks.correction

    u = np.linalg.solve(a_matrix.T, v_rows.T)  # A^-T V_i^T, one column per i
    quad = np.einsum("pi,pq,qi->i", u, s_matrix, u)
    cross = np.einsum("ip,pi->i", w_centered, u)
    per_obs = sigma2 + sigma2 * quad - 2.0 * sigma2 * cross
    var_beta0_c = float(per_obs.sum() / n**2)
    return VarianceReport(
        var_gamma_star=var_gamma_star,
        var_beta_c_star=var_beta_c_star,
        var_beta0_c=var_beta0_c,
        a_matrix=a_matrix,
        v_rows=v_rows,
    )


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
