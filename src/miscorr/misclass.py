"""Classification-error mechanism: theta matrices, marginals, Bayes posterior.

theta[x, w] = P(W = w | X = x) for one covariate; rows are probability
vectors.  The posterior pi[w, m] = P(X = m | W = w) is obtained by Bayes
inversion under a marginal p over the true categories.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    NonIdentifiable,
    Renormalized,
    UndefinedScenario,
    ValidationError,
    ZeroObservedMass,
)

SIMPLEX_TOL = 1e-12
RENORM_TOL = 1e-9
RCOND_MIN = 1e-10  # below this reciprocal condition number a matrix counts as singular

# Distortion presets used throughout the simulation study.  Row = true
# category, column = observed category.
SCENARIO_THETAS = {
    ("low", 2): [[0.9, 0.1], [0.15, 0.85]],
    ("low", 3): [[0.85, 0.1, 0.05], [0.1, 0.8, 0.1], [0.05, 0.1, 0.85]],
    ("low", 4): [
        [0.825, 0.1, 0.05, 0.025],
        [0.075, 0.8, 0.075, 0.05],
        [0.05, 0.075, 0.8, 0.075],
        [0.025, 0.05, 0.1, 0.825],
    ],
    ("medium", 2): [[0.7, 0.3], [0.35, 0.65]],
    ("medium", 3): [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]],
    ("medium", 4): [
        [0.6, 0.2, 0.125, 0.075],
        [0.15, 0.6, 0.15, 0.1],
        [0.1, 0.15, 0.6, 0.15],
        [0.075, 0.125, 0.2, 0.6],
    ],
    ("high", 4): [
        [0.3, 0.25, 0.25, 0.2],
        [0.25, 0.3, 0.25, 0.2],
        [0.2, 0.25, 0.3, 0.25],
        [0.2, 0.25, 0.25, 0.3],
    ],
}

DISTORTION_LEVELS = ("low", "medium", "high")


def _check_simplex_rows(mat: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.any(mat < 0):
        raise ValidationError(f"{name} has negative entries")
    sums = mat.sum(axis=-1)
    err = np.abs(sums - 1.0)
    if np.any(err > RENORM_TOL):
        raise ValidationError(f"{name} rows do not sum to 1 (max error {err.max():.3g})")
    if np.any(err > SIMPLEX_TOL):
        warnings.warn(f"renormalizing {name} rows (max error {err.max():.3g})", Renormalized)
        mat = mat / sums[..., None]
    return mat


def _rcond_below(s: np.ndarray) -> bool:
    """True when the singular values ``s`` of a matrix put its reciprocal
    2-norm condition number below RCOND_MIN (or the matrix is zero).  Those
    of a block-diagonal matrix are its blocks', concatenated."""
    return bool(s.max() == 0 or s.min() / s.max() < RCOND_MIN)


def check_theta(theta) -> np.ndarray:
    """Validate a square row-stochastic classification matrix."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValidationError("theta must be square")
    if theta.shape[0] < 2:
        raise ValidationError("theta needs at least 2 categories")
    return _check_simplex_rows(theta, "theta")


def check_marginal(p) -> np.ndarray:
    """Validate a marginal probability vector."""
    p = np.asarray(p, dtype=float).ravel()
    return _check_simplex_rows(p[None, :], "p")[0]


def observed_marginal(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Marginal of the observed category: q[w] = sum_x p[x] theta[x, w]."""
    return np.asarray(theta).T @ np.asarray(p)


@dataclass(frozen=True)
class Posterior:
    """Bayes-inverted matrix pi[w, m] = P(X=m | W=w) and observed marginal q."""

    pi: np.ndarray
    q: np.ndarray

    @property
    def n_levels(self) -> int:
        return len(self.q)


def posterior_from(theta, p) -> Posterior:
    """Invert the classification mechanism: pi[w, m] = theta[m, w] p[m] / q[w]."""
    theta = check_theta(theta)
    p = check_marginal(p)
    if len(p) != theta.shape[0]:
        raise ValidationError("theta and p dimensions differ")
    return _posterior(theta, p)


def _posterior(theta: np.ndarray, p: np.ndarray) -> Posterior:
    """posterior_from on a checked theta and p of matching size."""
    q = observed_marginal(theta, p)
    zero = np.nonzero(q <= 0)[0]
    if zero.size:
        raise ZeroObservedMass(int(zero[0]))
    pi = (theta * p[:, None]).T / q[:, None]
    return Posterior(pi=pi, q=q)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float).ravel()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    tau = css[rho] / (rho + 1)
    return np.maximum(v - tau, 0.0)


def estimate_marginal(theta, observed_freq) -> tuple[np.ndarray, float]:
    """Recover the true-category marginal p from observed frequencies.

    Solves theta^T p = q_hat by least squares and projects the solution onto
    the probability simplex.  Returns (p, residual norm of theta^T p - q_hat).
    """
    theta = check_theta(theta)
    q_hat = check_marginal(observed_freq)
    if len(q_hat) != theta.shape[0]:
        raise ValidationError("theta and observed_freq dimensions differ")
    at = theta.T
    if _rcond_below(np.linalg.svd(at, compute_uv=False)):
        raise NonIdentifiable("theta is numerically singular")
    p_raw = np.linalg.lstsq(at, q_hat, rcond=None)[0]
    p = project_simplex(p_raw)
    residual = float(np.linalg.norm(at @ p - q_hat))
    return p, residual


def scenario_theta(level: str, n_levels: int) -> np.ndarray:
    """Look up a distortion preset; defined for low/medium L in {2,3,4} and
    high L=4 only."""
    key = (level, int(n_levels))
    if key not in SCENARIO_THETAS:
        raise UndefinedScenario(level, n_levels)
    return np.array(SCENARIO_THETAS[key], dtype=float)


def posterior_rows(posteriors: Sequence[Posterior], w: np.ndarray) -> np.ndarray:
    """Row i is E[dummy(X_i) | W_i]: posterior probabilities of the
    non-reference categories, concatenated covariate-major."""
    w = np.asarray(w, dtype=int)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape[1] != len(posteriors):
        raise ValidationError("w column count does not match posterior count")
    bad = ((w < 0) | (w >= [post.n_levels for post in posteriors])).any(axis=0)
    if bad.any():
        raise ValidationError(f"w entries out of range for covariate {int(np.argmax(bad))}")
    return np.concatenate([post.pi[w[:, k], : post.n_levels - 1]
                           for k, post in enumerate(posteriors)], axis=1)
