import numpy as np
import pytest

from miscorr.categorical import CategoricalSpec, encode_dummy
from miscorr.errors import NonIdentifiable
from miscorr.misclass import observed_marginal, scenario_theta
from miscorr.moments import build_moment_blocks
from miscorr.simkit import simulate_w, simulate_x

LOW2 = scenario_theta("low", 2)
MED3 = scenario_theta("medium", 3)
HIGH4 = scenario_theta("high", 4)
U2 = np.full(2, 0.5)
U3 = np.ones(3) / 3
U4 = np.full(4, 0.25)


def _blocks(theta, p):
    return build_moment_blocks(CategoricalSpec((len(p),)), [theta], [p])


def test_var_w_low_binary():
    assert _blocks(LOW2, U2).sigma_w[0, 0] == pytest.approx(0.525 * 0.475)


def test_var_w_degenerate_column():
    # W is always level 0, so its indicator has no variance and sigma_w is zero
    theta = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonIdentifiable, match="sigma_w"):
        _blocks(theta, U2)


def test_var_w_medium_three_levels():
    assert _blocks(MED3, U3).sigma_w[0, 0] == pytest.approx(0.216389, abs=1e-6)


def test_cov_w_pair_medium():
    assert _blocks(MED3, U3).sigma_w[0, 1] == pytest.approx(-0.116111, abs=1e-6)


def test_cov_w_pair_zero_mass_level():
    # observed level 1 never occurs: its row and column of sigma_w are zero
    theta = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NonIdentifiable, match="sigma_w"):
        _blocks(theta, U3)


def test_cov_w_pair_high():
    assert _blocks(HIGH4, U4).sigma_w[0, 1] == pytest.approx(-0.062344, abs=1e-6)


# sigma_wx rows are observed levels, columns true levels
def test_cov_wx_low_binary():
    assert _blocks(LOW2, U2).sigma_wx[0, 0] == pytest.approx(0.1875)


def test_cov_wx_identity_reduces_to_bernoulli_variance():
    assert _blocks(np.eye(2), U2).sigma_wx[0, 0] == pytest.approx(0.25)


def test_cov_wx_medium_off_diagonal():
    assert _blocks(MED3, U3).sigma_wx[0, 1] == pytest.approx(-0.055556, abs=1e-6)


def test_blocks_identity_theta_gives_identity_correction():
    spec = CategoricalSpec((3,))
    blocks = build_moment_blocks(spec, [np.eye(3)], [U3])
    np.testing.assert_allclose(blocks.correction, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(blocks.sigma_wx, blocks.sigma_w, atol=1e-12)
    sigma_x = np.diag(U3[:2]) - np.outer(U3[:2], U3[:2])
    np.testing.assert_allclose(sigma_x, blocks.sigma_w, atol=1e-12)


def test_blocks_low_binary_attenuation_reciprocal():
    blocks = build_moment_blocks(CategoricalSpec((2,)), [LOW2], [U2])
    assert blocks.correction[0, 0] == pytest.approx(0.249375 / 0.1875, abs=1e-6)


def test_blocks_uninformative_theta_not_identifiable():
    theta = np.array([[0.6, 0.4], [0.6, 0.4]])
    with pytest.raises(NonIdentifiable):
        build_moment_blocks(CategoricalSpec((2,)), [theta], [U2])


def test_blocks_block_diagonal_structure():
    spec = CategoricalSpec((2, 3))
    blocks = build_moment_blocks(spec, [LOW2, MED3], [U2, U3])
    assert np.all(blocks.sigma_w[0, 1:] == 0)
    assert np.all(blocks.sigma_w[1:, 0] == 0)
    assert np.all(blocks.sigma_wx[0, 1:] == 0)
    assert np.all(blocks.sigma_wx[1:, 0] == 0)


def test_sigma_w_equals_multinomial_identity():
    for theta, p, lk in ((LOW2, U2, 2), (MED3, U3, 3), (HIGH4, U4, 4)):
        blocks = build_moment_blocks(CategoricalSpec((lk,)), [theta], [p])
        q = observed_marginal(theta, p)[: lk - 1]
        expected = np.diag(q) - np.outer(q, q)
        np.testing.assert_allclose(blocks.sigma_w, expected, atol=1e-12)


def test_z_star_embeds_correction():
    blocks = build_moment_blocks(CategoricalSpec((2,)), [LOW2], [U2])
    assert blocks.z_star.shape == (2, 2)
    assert blocks.z_star[0, 0] == 1.0
    assert blocks.z_star[0, 1] == 0.0
    assert blocks.z_star[1, 0] == 0.0
    assert blocks.z_star[1, 1] == blocks.correction[0, 0]


def test_sample_covariance_matches_blocks_monte_carlo():
    # empirical oracle: simulate (X, W) and compare sample covariances
    spec = CategoricalSpec((3,))
    blocks = build_moment_blocks(spec, [MED3], [U3])
    rng = np.random.default_rng(77)
    n = 100_000
    x = simulate_x([U3], n, rng)
    w = simulate_w(x, [MED3], rng)
    dx = encode_dummy(spec, x).design
    dw = encode_dummy(spec, w).design
    dwc = dw - dw.mean(axis=0)
    dxc = dx - dx.mean(axis=0)
    sample_w = dwc.T @ dwc / (n - 1)
    sample_wx = dwc.T @ dxc / (n - 1)
    np.testing.assert_allclose(sample_w, blocks.sigma_w, atol=0.01)
    np.testing.assert_allclose(sample_wx, blocks.sigma_wx, atol=0.01)
