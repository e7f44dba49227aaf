import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility.diffusion import (
    DEFAULT_BRACKET,
    DEFAULT_GRID_POINTS,
    fit_d,
    fit_d_pooled,
    model_matrix,
)
from rankmobility.mobility import TransitionMatrix


def direct_model(d, n_bins):
    out = np.zeros((n_bins, n_bins))
    for j in range(n_bins):
        col = np.array([np.exp(-((i - j) ** 2) / d) for i in range(n_bins)])
        out[:, j] = col / col.sum()
    return out


@pytest.mark.parametrize("d", [0.1, 0.35, 2.0])
@pytest.mark.parametrize("n_bins", [3, 10])
def test_model_matrix_matches_direct_formula(d, n_bins):
    np.testing.assert_allclose(model_matrix(d, n_bins), direct_model(d, n_bins), rtol=1e-12)


def test_model_matrix_frozen_column():
    col = model_matrix(0.35)[:, 0]
    assert col[0] == pytest.approx(0.945677, rel=1e-4)
    assert col[1] == pytest.approx(0.0543127, rel=1e-4)
    assert col[2] == pytest.approx(1.02891e-05, rel=1e-3)


def test_small_d_limit_is_identity():
    np.testing.assert_array_equal(model_matrix(1e-6), np.eye(10))


def test_large_d_limit_is_uniform():
    assert np.abs(model_matrix(1e6) - 0.1).max() < 1e-4


def test_columns_sum_to_one():
    for d in np.logspace(-3, 1, 40):
        sums = model_matrix(float(d)).sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-12


def test_reversal_symmetry():
    m = model_matrix(0.7)
    np.testing.assert_allclose(m, m[::-1, ::-1], rtol=0, atol=1e-15)


def test_diagonal_sharpens_as_d_shrinks():
    diag = [model_matrix(d)[5, 5] for d in (0.1, 0.5, 2.0)]
    assert diag[0] > diag[1] > diag[2]


@pytest.mark.parametrize("d", [0.0, -0.5])
def test_rejects_nonpositive_d(d):
    with pytest.raises(ValueError, match="diffusion coefficient must be positive"):
        model_matrix(d)


def test_frobenius_gap_vanishes_on_exact_member():
    assert np.linalg.norm(model_matrix(0.4) - model_matrix(0.4)) == 0.0
    assert np.linalg.norm(model_matrix(0.4) - model_matrix(0.8)) > 0.01


def test_frobenius_gap_identity_vs_uniform():
    # norm(I - U) for 10x10 with U = 1/10: sqrt(10 * 0.81 + 90 * 0.01) = 3.
    assert np.linalg.norm(np.eye(10) - model_matrix(1e6)) == pytest.approx(3.0, abs=1e-3)


def test_fit_recovers_exact_member():
    fit = fit_d(model_matrix(0.22))
    assert fit.converged
    assert fit.d_star == pytest.approx(0.22, abs=1e-5)
    assert fit.objective < 1e-4
    assert fit.iterations > 0
    assert fit.bracket == DEFAULT_BRACKET
    assert fit.grid_points == DEFAULT_GRID_POINTS
    assert fit.n_matrices == 1


def test_fit_accepts_transition_matrix_wrapper():
    tm = TransitionMatrix(matrix=model_matrix(0.7))
    assert fit_d(tm).d_star == pytest.approx(0.7, abs=1e-5)


def test_uniform_matrix_clamps_to_upper_edge():
    fit = fit_d(np.full((10, 10), 0.1))
    assert not fit.converged
    assert fit.iterations == 0
    assert fit.d_star == DEFAULT_BRACKET[1]


def test_identity_matrix_clamps_to_lower_edge():
    fit = fit_d(np.eye(10))
    assert not fit.converged
    assert fit.d_star == pytest.approx(DEFAULT_BRACKET[0])


@pytest.mark.parametrize(
    "matrix, bracket, edge",
    [
        # A log-spaced grid over these brackets misses the edge by one ulp:
        # 49.99999999999999 and 5.000000000000001.
        (np.eye(10), (50.0, 100.0), 50.0),
        (np.full((10, 10), 0.1), (0.5, 5.0), 5.0),
    ],
    ids=["lower", "upper"],
)
def test_fit_at_a_bracket_edge_reports_the_edge_exactly(matrix, bracket, edge):
    fit = fit_d(matrix, bracket=bracket)
    assert not fit.converged
    assert fit.d_star == edge


def test_rejects_nonsquare_matrix():
    with pytest.raises(ValueError, match="transition matrix must be square"):
        fit_d(np.full((10, 9), 0.1))


def test_rejects_negative_entries():
    m = np.full((3, 3), 1.0 / 3.0)
    m[:, 0] = [-0.2, 0.6, 0.6]
    with pytest.raises(ValueError, match="transition matrix has negative entries"):
        fit_d(m)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entries(value):
    m = model_matrix(0.5)
    m[3, 4] = value
    with pytest.raises(ValueError, match="transition matrix has non-finite entries"):
        fit_d(m)
    with pytest.raises(ValueError, match="transition matrix has non-finite entries"):
        fit_d_pooled([model_matrix(0.5), m])


def test_rejects_columns_not_summing_to_one():
    with pytest.raises(ValueError, match="transition matrix columns must sum to 1"):
        fit_d(np.full((3, 3), 0.5))


def test_rejects_bad_bracket():
    with pytest.raises(ValueError, match="bracket must satisfy 0 < lo < hi"):
        fit_d(model_matrix(0.5), bracket=(0.0, 1.0))
    with pytest.raises(ValueError, match="bracket must satisfy 0 < lo < hi"):
        fit_d(model_matrix(0.5), bracket=(2.0, 1.0))


def test_rejects_degenerate_grid():
    with pytest.raises(ValueError, match="grid needs at least two points"):
        fit_d(model_matrix(0.5), grid_points=1)


def test_pooled_needs_at_least_one_matrix():
    with pytest.raises(ValueError, match="need at least one matrix to fit"):
        fit_d_pooled([])


def test_pooled_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="all matrices must share one shape"):
        fit_d_pooled([model_matrix(0.5, 10), model_matrix(0.5, 8)])


def test_pooled_fit_lands_between_members():
    fit = fit_d_pooled([model_matrix(0.2), model_matrix(0.4)])
    assert fit.converged
    assert 0.2 < fit.d_star < 0.4
    assert fit.n_matrices == 2


def test_pooled_fit_of_copies_matches_single_fit():
    m = model_matrix(0.9)
    pooled = fit_d_pooled([m, m])
    single = fit_d(m)
    assert pooled.d_star == pytest.approx(single.d_star, abs=1e-6)


def test_fit_matches_reference_optimizer():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(3)
    raw = model_matrix(0.8) + 0.02 * rng.random((10, 10))
    m = raw / raw.sum(axis=0, keepdims=True)

    reference = scipy_optimize.minimize_scalar(
        lambda d: float(np.linalg.norm(m - model_matrix(d))),
        bounds=DEFAULT_BRACKET,
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert fit_d(m).d_star == pytest.approx(reference.x, abs=1e-5)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0))
def test_fit_recovers_any_interior_d(d):
    fit = fit_d(model_matrix(d))
    assert fit.converged
    assert fit.d_star == pytest.approx(d, abs=1e-4)
