import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miscorr.categorical import CategoricalSpec, encode_dummy
from miscorr.errors import NonIdentifiable, ValidationError
from miscorr.misclass import RCOND_MIN, observed_marginal, scenario_theta
from miscorr.moments import mechanism
from miscorr.simkit import simulate_w, simulate_x

LOW2 = scenario_theta("low", 2)
MED3 = scenario_theta("medium", 3)
HIGH4 = scenario_theta("high", 4)
U2 = np.full(2, 0.5)
U3 = np.ones(3) / 3
U4 = np.full(4, 0.25)


def _blocks(theta, p):
    return mechanism(CategoricalSpec((len(p),)), [theta], [p])[0]


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
    blocks = mechanism(spec, [np.eye(3)], [U3])[0]
    np.testing.assert_allclose(blocks.correction, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(blocks.sigma_wx, blocks.sigma_w, atol=1e-12)
    sigma_x = np.diag(U3[:2]) - np.outer(U3[:2], U3[:2])
    np.testing.assert_allclose(sigma_x, blocks.sigma_w, atol=1e-12)


def test_blocks_low_binary_attenuation_reciprocal():
    blocks = mechanism(CategoricalSpec((2,)), [LOW2], [U2])[0]
    assert blocks.correction[0, 0] == pytest.approx(0.249375 / 0.1875, abs=1e-6)


def test_blocks_uninformative_theta_not_identifiable():
    theta = np.array([[0.6, 0.4], [0.6, 0.4]])
    with pytest.raises(NonIdentifiable):
        mechanism(CategoricalSpec((2,)), [theta], [U2])[0]


@pytest.mark.parametrize("level", range(4))
def test_a_true_level_of_p_0_leaves_the_correction_unidentified(level):
    # with p_l = 0 the true indicators are collinear (a column of sigma_wx
    # is 0, or, for the reference level, its columns sum to 0), so a p on
    # the simplex boundary never gives a correction
    p = np.full(4, 1 / 3)
    p[level] = 0.0
    with pytest.raises(NonIdentifiable, match="no information"):
        _blocks(HIGH4, p)


def test_blocks_block_diagonal_structure():
    spec = CategoricalSpec((2, 3))
    blocks = mechanism(spec, [LOW2, MED3], [U2, U3])[0]
    assert np.all(blocks.sigma_w[0, 1:] == 0)
    assert np.all(blocks.sigma_w[1:, 0] == 0)
    assert np.all(blocks.sigma_wx[0, 1:] == 0)
    assert np.all(blocks.sigma_wx[1:, 0] == 0)


def test_sigma_w_equals_multinomial_identity():
    for theta, p, lk in ((LOW2, U2, 2), (MED3, U3, 3), (HIGH4, U4, 4)):
        blocks = mechanism(CategoricalSpec((lk,)), [theta], [p])[0]
        q = observed_marginal(theta, p)[: lk - 1]
        expected = np.diag(q) - np.outer(q, q)
        np.testing.assert_allclose(blocks.sigma_w, expected, atol=1e-12)


def test_z_star_embeds_correction():
    blocks = mechanism(CategoricalSpec((2,)), [LOW2], [U2])[0]
    assert blocks.z_star.shape == (2, 2)
    assert blocks.z_star[0, 0] == 1.0
    assert blocks.z_star[0, 1] == 0.0
    assert blocks.z_star[1, 0] == 0.0
    assert blocks.z_star[1, 1] == blocks.correction[0, 0]


def test_sample_covariance_matches_blocks_monte_carlo():
    # empirical oracle: simulate (X, W) and compare sample covariances
    spec = CategoricalSpec((3,))
    blocks = mechanism(spec, [MED3], [U3])[0]
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


def _block_diag(blocks):
    d = sum(len(b) for b in blocks)
    out, off = np.zeros((d, d)), 0
    for b in blocks:
        out[off:off + len(b), off:off + len(b)] = b
        off += len(b)
    return out


def _rcond(mat):
    s = np.linalg.svd(mat, compute_uv=False)
    return s[-1] / s[0] if s[0] else 0.0


def _covariate_draw(lk):
    """theta: uniform rows blended with weight 10^-u into random rows whose
    entries span up to 30 decades or are 0; p: entries spanning up to 12
    decades.  A large u leaves the attenuation near singular, spread or
    zero entries leave sigma_w small or singular, and covariates of unlike
    u or spread mix scales."""
    theta_decades = st.floats(0, 1) | st.floats(0, 30) | st.just(400.0)  # 10^-400 is 0
    return st.tuples(
        st.lists(theta_decades, min_size=lk * lk, max_size=lk * lk),
        st.floats(0, 1) | st.floats(9, 12) | st.floats(0, 30),
        st.lists(st.floats(0, 1) | st.floats(0, 12), min_size=lk, max_size=lk),
    ).map(lambda draw: _covariate_from(lk, *draw))


def _simplex(weights):
    """Rows of ``weights`` scaled to sum to 1; a row of zeros is uniform."""
    weights = np.where(weights.sum(axis=-1, keepdims=True) > 0, weights, 1.0)
    return weights / weights.sum(axis=-1, keepdims=True)


def _covariate_from(lk, theta_decades, u, p_decades):
    rows = _simplex(10.0 ** -np.reshape(theta_decades, (lk, lk)))
    theta = _simplex((1 - 10.0**-u) / lk + 10.0**-u * rows)
    return theta, _simplex(10.0 ** -np.array(p_decades))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=4).flatmap(
    lambda levels: st.tuples(st.just(tuple(levels)),
                             st.tuples(*map(_covariate_draw, levels)))))
# each block is regular alone; sigma_w, then the attenuation, is singular assembled
@example(((2, 2), (_covariate_from(2, [10.7, 0, 400, 0], 0, [0, 0]),
                   _covariate_from(2, [0, 1, 1, 0], 0, [0, 0]))))
@example(((2, 2), (_covariate_from(2, [0, 1, 1, 0], 10.5, [0, 0]),
                   _covariate_from(2, [0, 1, 1, 0], 0, [0, 0]))))
def test_the_block_decision_is_the_decision_on_the_assembled_matrices(draw):
    levels, covariates = draw
    thetas, ps = zip(*covariates)
    # the assembled blocks, built as one d x d matrix was before
    sigma_w, sigma_wx = [], []
    for theta, p in covariates:
        q, dk = observed_marginal(theta, p), len(p) - 1
        sigma_w.append(np.diag(q[:dk]) - np.outer(q[:dk], q[:dk]))
        sigma_wx.append((theta[:dk, :dk].T - q[:dk, None]) * p[None, :dk])
    full_w, full_wx = _block_diag(sigma_w), _block_diag(sigma_wx)
    # det sigma_w is the product of the q's, so a zero observed mass is
    # singular however sigma_w rounds
    zero_mass = any((observed_marginal(*c) <= 0).any() for c in covariates)
    # a decision within rounding of RCOND_MIN may go either way: Weyl bounds
    # the move of each singular value by the 2-norm of the perturbation
    assume(zero_mass or abs(_rcond(full_w) - RCOND_MIN) > 1e-4 * RCOND_MIN)
    if zero_mass or _rcond(full_w) < RCOND_MIN:
        expected = "sigma_w is numerically singular"
    else:
        attenuation = np.linalg.solve(full_w, full_wx)
        per_block = _block_diag([np.linalg.solve(a, b) for a, b in zip(sigma_w, sigma_wx)])
        s_max = np.linalg.norm(attenuation, 2)
        rounding = np.linalg.norm(attenuation - per_block, 2) / s_max if s_max else 0.0
        assume(abs(_rcond(attenuation) - RCOND_MIN) > 1e-4 * RCOND_MIN + 4 * rounding)
        expected = "observed categories carry no information about the true ones" \
            if _rcond(attenuation) < RCOND_MIN else None
    try:
        blocks, _ = mechanism(CategoricalSpec(levels), thetas, ps)
    except NonIdentifiable as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        np.testing.assert_array_equal(blocks.sigma_w, full_w)
        np.testing.assert_array_equal(blocks.sigma_wx, full_wx)


def test_every_theta_and_p_is_checked_before_a_singular_block_is_refused():
    # covariate 0's sigma_w is 0; covariate 1's theta has a negative entry
    singular = np.array([[1.0, 0.0], [1.0, 0.0]])
    bad = np.array([[1.1, -0.1], [0.2, 0.8]])
    with pytest.raises(ValidationError, match="theta has negative entries"):
        mechanism(CategoricalSpec((2, 2)), [singular, bad], [U2, U2])
    with pytest.raises(NonIdentifiable, match="sigma_w"):
        mechanism(CategoricalSpec((2, 2)), [singular, LOW2], [U2, U2])
    # with this p, q = (1, 0) but sigma_w rounds to -2e-16, which is regular
    # by rcond alone: the zero observed mass makes it singular all the same
    rounded = np.array([1, 1e-3]) / 1.001
    with pytest.raises(NonIdentifiable, match="sigma_w"):
        mechanism(CategoricalSpec((2, 2)), [singular, singular], [rounded, rounded])
    with pytest.raises(NonIdentifiable, match="sigma_w"):
        mechanism(CategoricalSpec((2, 2)), [singular, LOW2], [rounded, U2])


@pytest.mark.parametrize("levels", [(4,), (2, 3, 4), (3, 2, 4, 4, 2, 3, 3, 4, 2, 2)])
def test_the_assembled_correction_is_the_inverse_of_the_full_attenuation(levels):
    rng = np.random.default_rng(len(levels))
    thetas = [scenario_theta("medium", lk) for lk in levels]
    ps = [rng.dirichlet(np.full(lk, 2.0)) for lk in levels]
    blocks = mechanism(CategoricalSpec(levels), thetas, ps)[0]
    expected = np.linalg.inv(np.linalg.solve(blocks.sigma_w, blocks.sigma_wx))
    if len(levels) == 1:
        np.testing.assert_array_equal(blocks.correction, expected)
    else:
        assert np.abs(blocks.correction - expected).max() <= 1e-13 * np.abs(expected).max()
    np.testing.assert_array_equal(blocks.z_star[1:, 1:], blocks.correction)
