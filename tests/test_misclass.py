import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miscorr.categorical import CategoricalSpec, encode_dummy
from miscorr.errors import (
    UndefinedScenario,
    ValidationError,
    ZeroObservedMass,
)
from miscorr.misclass import (
    SCENARIO_THETAS,
    estimate_marginal,
    observed_marginal,
    posterior_from,
    posterior_rows,
    project_simplex,
    scenario_theta,
)

LOW2 = scenario_theta("low", 2)
UNIFORM2 = np.array([0.5, 0.5])


def test_posterior_low_binary():
    post = posterior_from(LOW2, UNIFORM2)
    assert post.pi[0, 0] == pytest.approx(0.45 / 0.525, abs=1e-6)
    assert post.q == pytest.approx([0.525, 0.475])


def test_posterior_identity_theta():
    post = posterior_from(np.eye(3), [0.2, 0.3, 0.5])
    np.testing.assert_allclose(post.pi, np.eye(3), atol=1e-15)


def test_posterior_medium_three_levels():
    post = posterior_from(scenario_theta("medium", 3), np.ones(3) / 3)
    assert post.pi[0, 0] == pytest.approx(0.7 / 0.95, abs=1e-6)


def test_posterior_zero_observed_mass():
    theta = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ZeroObservedMass):
        posterior_from(theta, UNIFORM2)


def test_theta_validation():
    with pytest.raises(ValidationError):
        posterior_from(np.array([[0.9, 0.2], [0.1, 0.9]]), UNIFORM2)
    with pytest.raises(ValidationError):
        posterior_from(np.array([[-0.1, 1.1], [0.5, 0.5]]), UNIFORM2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_or_p_is_rejected(bad):
    theta = LOW2.copy()
    theta[0, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        posterior_from(theta, UNIFORM2)
    with pytest.raises(ValidationError, match="non-finite"):
        posterior_from(LOW2, [bad, 0.5])


@st.composite
def _theta_and_p(draw, max_levels=4):
    lk = draw(st.integers(min_value=2, max_value=max_levels))
    raw = draw(
        st.lists(
            st.lists(st.floats(0.05, 1.0), min_size=lk, max_size=lk),
            min_size=lk + 1,
            max_size=lk + 1,
        )
    )
    mat = np.array(raw)
    theta = mat[:lk] / mat[:lk].sum(axis=1, keepdims=True)
    p = mat[lk] / mat[lk].sum()
    return theta, p


@given(_theta_and_p())
@settings(max_examples=60, deadline=None)
def test_posterior_marginalization_recovers_p(pair):
    theta, p = pair
    post = posterior_from(theta, p)
    recovered = post.q @ post.pi
    np.testing.assert_allclose(recovered, p, atol=1e-12)


def test_estimate_marginal_identity():
    p, resid = estimate_marginal(np.eye(2), [0.3, 0.7])
    np.testing.assert_allclose(p, [0.3, 0.7], atol=1e-12)
    assert resid < 1e-12


def test_estimate_marginal_forward_roundtrip():
    q = observed_marginal(LOW2, UNIFORM2)
    np.testing.assert_allclose(q, [0.525, 0.475])
    p, resid = estimate_marginal(LOW2, q)
    np.testing.assert_allclose(p, UNIFORM2, atol=1e-10)
    assert resid < 1e-10


def test_estimate_marginal_clips_to_simplex():
    p, resid = estimate_marginal(LOW2, [0.99, 0.01])
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert resid > 1e-3


@given(_theta_and_p(max_levels=3))
@settings(max_examples=40, deadline=None)
def test_estimate_marginal_roundtrip_interior(pair):
    theta, p = pair
    if 1.0 / np.linalg.cond(theta.T) < 1e-6:
        return  # nearly uninformative theta, roundtrip not required
    q = observed_marginal(theta, p)
    p_hat, _ = estimate_marginal(theta, q)
    np.testing.assert_allclose(p_hat, p, atol=1e-8)


def test_project_simplex_basics():
    np.testing.assert_allclose(project_simplex([0.2, 0.8]), [0.2, 0.8])
    out = project_simplex([1.5, -0.5])
    np.testing.assert_allclose(out, [1.0, 0.0])


def test_scenario_tables_match_frozen_values():
    np.testing.assert_allclose(
        scenario_theta("low", 2), [[0.9, 0.1], [0.15, 0.85]]
    )
    np.testing.assert_allclose(
        scenario_theta("medium", 3),
        [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]],
    )
    np.testing.assert_allclose(
        scenario_theta("high", 4),
        [
            [0.3, 0.25, 0.25, 0.2],
            [0.25, 0.3, 0.25, 0.2],
            [0.2, 0.25, 0.3, 0.25],
            [0.2, 0.25, 0.25, 0.3],
        ],
    )


def test_all_scenario_rows_are_stochastic():
    for (_, lk), rows in SCENARIO_THETAS.items():
        mat = np.array(rows)
        assert mat.shape == (lk, lk)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


def test_undefined_scenarios():
    with pytest.raises(UndefinedScenario):
        scenario_theta("high", 2)
    with pytest.raises(UndefinedScenario):
        scenario_theta("low", 5)


def test_posterior_rows_identity_equals_dummy():
    spec = CategoricalSpec((3, 2))
    rng = np.random.default_rng(1)
    w = np.column_stack([rng.integers(0, 3, 40), rng.integers(0, 2, 40)])
    posts = [posterior_from(np.eye(3), np.ones(3) / 3),
             posterior_from(np.eye(2), np.ones(2) / 2)]
    rows = posterior_rows(posts, w)
    np.testing.assert_array_equal(rows, encode_dummy(spec, w).design)


def test_posterior_rows_low_binary():
    post = posterior_from(LOW2, UNIFORM2)
    rows = posterior_rows([post], np.array([[0]]))
    assert rows[0, 0] == pytest.approx(0.857143, abs=1e-6)


def test_posterior_rows_two_identity_covariates():
    posts = [posterior_from(np.eye(2), UNIFORM2)] * 2
    rows = posterior_rows(posts, np.array([[1, 0]]))
    assert rows.tolist() == [[0.0, 1.0]]
