"""Theoretical covariance blocks of the indicator variables and the
slope-correction transform, built by ``mechanism`` together with the
posteriors the intercept correction reads.

For one covariate with observed marginal q, the indicator covariance is the
multinomial identity diag(q) - q q^T restricted to the non-reference levels.
The cross block pairs observed with true indicators.  Blocks for different
covariates are zero by the independence assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import CategoricalSpec
from .errors import NonIdentifiable, ValidationError
from .misclass import _near_singular, _posterior, check_marginal, check_theta, observed_marginal


@dataclass(frozen=True)
class MomentBlocks:
    """Block-diagonal covariances and the correction transform.

    ``correction`` is the inverse of sigma_w^-1 sigma_wx (the attenuation
    map); ``z_star`` embeds it in the full parameter space with a leading 1
    for the intercept.
    """

    sigma_w: np.ndarray
    sigma_wx: np.ndarray
    correction: np.ndarray
    z_star: np.ndarray


def _indicator_cov(q: np.ndarray) -> np.ndarray:
    d = len(q) - 1
    qd = q[:d]
    return np.diag(qd) - np.outer(qd, qd)


def build_moment_blocks(spec: CategoricalSpec, thetas: Sequence, ps: Sequence) -> MomentBlocks:
    """Assemble sigma_w, sigma_wx and the correction transform from one
    (theta, p) pair per covariate."""
    return mechanism(spec, thetas, ps)[0]


def mechanism(spec: CategoricalSpec, thetas: Sequence, ps: Sequence):
    """What the correction reads of (theta, p): the moment blocks, for the
    slopes, and the posteriors, for the intercept.  Each theta and p is
    checked once, theta then p, covariate by covariate, each sized to its
    L_k; the blocks are built before any posterior."""
    if len(thetas) != spec.n_covariates or len(ps) != spec.n_covariates:
        raise ValidationError("need one (theta, p) pair per covariate")
    pairs = []
    for k, lk in enumerate(spec.levels):
        theta = check_theta(thetas[k])
        p = check_marginal(ps[k])
        if theta.shape[0] != lk or len(p) != lk:
            raise ValidationError(f"covariate {k}: theta/p size does not match L={lk}")
        pairs.append((theta, p))

    d = spec.n_slopes
    sigma_w = np.zeros((d, d))
    sigma_wx = np.zeros((d, d))
    off = 0
    for (theta, p), lk in zip(pairs, spec.levels):
        q = observed_marginal(theta, p)
        dk = lk - 1
        sl = slice(off, off + dk)
        sigma_w[sl, sl] = _indicator_cov(q)
        # rows indexed by observed level, columns by true level
        block = (theta[:dk, :dk].T - q[:dk, None]) * p[None, :dk]
        sigma_wx[sl, sl] = block
        off += dk

    if _near_singular(sigma_w):
        raise NonIdentifiable("sigma_w is numerically singular")
    attenuation = np.linalg.solve(sigma_w, sigma_wx)
    if _near_singular(attenuation):
        raise NonIdentifiable(
            "observed categories carry no information about the true ones"
        )
    correction = np.linalg.inv(attenuation)
    z_star = np.zeros((d + 1, d + 1))
    z_star[0, 0] = 1.0
    z_star[1:, 1:] = correction
    blocks = MomentBlocks(sigma_w=sigma_w, sigma_wx=sigma_wx, correction=correction,
                          z_star=z_star)
    return blocks, [_posterior(theta, p) for theta, p in pairs]
