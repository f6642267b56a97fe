"""Theoretical covariance blocks of the indicator variables and the
slope-correction transform, built by ``mechanism`` together with the
posteriors the intercept correction reads.

For one covariate with observed marginal q, the indicator covariance is the
multinomial identity diag(q) - q q^T restricted to the non-reference levels.
The cross block pairs observed with true indicators.  Blocks for different
covariates are zero by the independence assumption, so the correction is
block-diagonal too, and each covariate's part is built on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import CategoricalSpec
from .errors import NonIdentifiable, ValidationError
from .misclass import _posterior, _rcond_below, check_marginal, check_theta, observed_marginal


@dataclass(frozen=True)
class MomentBlocks:
    """Block-diagonal covariances and the correction transform.

    ``correction`` is the inverse of sigma_w^-1 sigma_wx (the attenuation
    map); ``z_star`` embeds it in the full parameter space with a leading 1
    for the intercept.  ``pi_ref`` is each covariate's posterior row of its
    reference level, pi_k(L_k - 1, :L_k - 1), concatenated covariate-major.
    """

    sigma_w: np.ndarray
    sigma_wx: np.ndarray
    correction: np.ndarray
    pi_ref: np.ndarray

    @property
    def z_star(self) -> np.ndarray:
        z_star = np.eye(len(self.correction) + 1)
        z_star[1:, 1:] = self.correction
        return z_star


def _block_diag(blocks, d: int) -> np.ndarray:
    out, off = np.zeros((d, d)), 0
    for block in blocks:
        out[off:off + len(block), off:off + len(block)] = block
        off += len(block)
    return out


def _covariate(k: int, lk: int, theta: np.ndarray, p: np.ndarray):
    """Check that covariate k's theta and p, each already checked, are sized
    to L_k, and build its part of the mechanism: sigma_w and sigma_wx
    blocks, singular values of sigma_w and of the attenuation, correction
    block and posterior.  Past the size check it never raises: what a block
    singular on its own would give is None, for ``mechanism`` to raise once
    every covariate is checked.  det sigma_w is the product of q, so a zero
    observed mass makes sigma_w singular, and its singular values are taken
    as 0, whatever rounding leaves."""
    if theta.shape[0] != lk or len(p) != lk:
        raise ValidationError(f"covariate {k}: theta/p size does not match L={lk}")
    q = observed_marginal(theta, p)
    dk = lk - 1
    sigma_w = np.diag(q[:dk]) - np.outer(q[:dk], q[:dk])
    # rows indexed by observed level, columns by true level
    sigma_wx = (theta[:dk, :dk].T - q[:dk, None]) * p[None, :dk]
    s_w = np.linalg.svd(sigma_w, compute_uv=False) if (q > 0).all() else np.zeros(dk)
    s_attenuation = correction = posterior = None
    if not _rcond_below(s_w):
        attenuation = np.linalg.solve(sigma_w, sigma_wx)
        s_attenuation = np.linalg.svd(attenuation, compute_uv=False)
        if not _rcond_below(s_attenuation):
            correction = np.linalg.inv(attenuation)
            posterior = _posterior(theta, p)
    return sigma_w, sigma_wx, s_w, s_attenuation, correction, posterior


def mechanism(spec: CategoricalSpec, thetas: Sequence, ps: Sequence):
    """What the correction reads of (theta, p): the moment blocks, for the
    slopes, and the posteriors, for the intercept.  Each theta and p is
    checked once, theta then p, covariate by covariate, each sized to its
    L_k, before ``_assemble`` judges and places the covariates' parts."""
    if len(thetas) != spec.n_covariates or len(ps) != spec.n_covariates:
        raise ValidationError("need one (theta, p) pair per covariate")
    return _assemble([_covariate(k, lk, check_theta(theta), check_marginal(p))
                      for k, (lk, theta, p) in enumerate(zip(spec.levels, thetas, ps))])


def _assemble(parts):
    """The mechanism of the covariates whose ``_covariate`` parts are given:
    sigma_w, then the attenuation, is judged singular from the covariates'
    singular values, then the blocks are placed on the diagonal."""
    sigma_ws, sigma_wxs, s_w, s_attenuation, corrections, posteriors = zip(*parts)
    if _rcond_below(np.concatenate(s_w)):
        raise NonIdentifiable("sigma_w is numerically singular")
    if _rcond_below(np.concatenate(s_attenuation)):
        raise NonIdentifiable(
            "observed categories carry no information about the true ones"
        )
    d = sum(map(len, sigma_ws))
    blocks = MomentBlocks(sigma_w=_block_diag(sigma_ws, d), sigma_wx=_block_diag(sigma_wxs, d),
                          correction=_block_diag(corrections, d),
                          pi_ref=np.concatenate([post.pi[-1, :-1] for post in posteriors]))
    return blocks, list(posteriors)
