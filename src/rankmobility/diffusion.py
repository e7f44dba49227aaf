"""Random-walk model of rank transitions and its calibration.

The model posits that an author in decile j moves to decile i with
probability proportional to exp(-(i - j)^2 / D): a Gaussian kernel in rank
distance, normalized per starting decile (column-stochastic). Small D pins
authors to their decile; large D lets ranks diffuse toward uniform.

Calibration minimizes the Frobenius norm between an observed transition
matrix and the model, scanning a log-spaced grid and then refining the best
bracket by golden-section search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mobility import DEFAULT_BINS, TransitionMatrix

DEFAULT_BRACKET = (1e-3, 10.0)
DEFAULT_GRID_POINTS = 200
# Golden-section search stops once the bracketing interval is this narrow.
GOLDEN_TOL = 1e-6
# 2 / (1 + sqrt(5)): fraction of the interval kept each golden-section step.
_INV_PHI = 2.0 / (1.0 + np.sqrt(5.0))

STOCHASTIC_TOL = 1e-9


def model_matrix(d: float, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """Column-stochastic Gaussian rank-diffusion kernel.

    Parameters
    ----------
    d : float
        Diffusion coefficient, strictly positive and finite.
    n_bins : int
        Matrix size (10 for deciles).

    Returns
    -------
    numpy.ndarray
        n_bins x n_bins matrix; entry (i, j), 0-based, is
        exp(-(i-j)^2/d) / sum_l exp(-(l-j)^2/d).
    """
    if not 0 < d < np.inf:
        raise ValueError("diffusion coefficient must be positive and finite")
    offsets = np.arange(n_bins, dtype=float)
    distance_sq = (offsets[:, None] - offsets[None, :]) ** 2
    weights = np.exp(-distance_sq / d)
    return weights / weights.sum(axis=0, keepdims=True)


def _as_matrix(matrix: TransitionMatrix | np.ndarray) -> np.ndarray:
    if isinstance(matrix, TransitionMatrix):
        return matrix.matrix
    return np.asarray(matrix, dtype=float)


def _require_column_stochastic(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.isfinite(matrix).all():
        raise ValueError("transition matrix has non-finite entries")
    if (matrix < -STOCHASTIC_TOL).any():
        raise ValueError("transition matrix has negative entries")
    sums = matrix.sum(axis=0)
    if np.abs(sums - 1.0).max() > STOCHASTIC_TOL:
        raise ValueError("transition matrix columns must sum to 1")


@dataclass(frozen=True)
class DiffusionFit:
    """Calibration result.

    converged is False when the optimum sits on a bracket edge, in which
    case d_star is clamped to that edge and should not be trusted.
    """

    d_star: float
    objective: float
    bracket: tuple[float, float]
    grid_points: int
    iterations: int
    converged: bool
    n_matrices: int = 1


def _golden_section(objective, lo: float, hi: float) -> tuple[float, float, int]:
    """Minimize a unimodal function on [lo, hi] to interval width GOLDEN_TOL."""
    a, b = lo, hi
    h = b - a
    x1 = b - _INV_PHI * h
    x2 = a + _INV_PHI * h
    f1 = objective(x1)
    f2 = objective(x2)
    iterations = 0
    while h > GOLDEN_TOL:
        iterations += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = b - _INV_PHI * h
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + _INV_PHI * h
            f2 = objective(x2)
    best = x1 if f1 <= f2 else x2
    return best, objective(best), iterations


def _fit(
    matrices: Sequence[TransitionMatrix | np.ndarray],
    bracket: tuple[float, float],
    grid_points: int,
) -> DiffusionFit:
    """Check the matrices and fit parameters, then calibrate one D to all matrices."""
    if not matrices:
        raise ValueError("need at least one matrix to fit")
    arrays = [_as_matrix(m) for m in matrices]
    for m in arrays:
        _require_column_stochastic(m)
    if len({m.shape for m in arrays}) > 1:
        raise ValueError("all matrices must share one shape")
    lo, hi = bracket
    if not 0 < lo < hi < np.inf:
        raise ValueError("bracket must satisfy 0 < lo < hi < inf")
    if grid_points < 2:
        raise ValueError("grid needs at least two points")
    n_bins = arrays[0].shape[0]

    def objective(d: float) -> float:
        model = model_matrix(d, n_bins)
        return float(sum(np.linalg.norm(m - model) for m in arrays))

    grid = np.logspace(np.log10(lo), np.log10(hi), grid_points)
    # logspace can miss an edge by an ulp; pin both, so an edge optimum is the edge.
    grid[0], grid[-1] = lo, hi
    values = np.array([objective(d) for d in grid])
    best = int(values.argmin())
    converged = 0 < best < grid_points - 1
    if converged:
        d_star, obj, iterations = _golden_section(objective, float(grid[best - 1]), float(grid[best + 1]))
    else:
        d_star, obj, iterations = grid[best], values[best], 0
    return DiffusionFit(
        d_star=float(d_star),
        objective=float(obj),
        bracket=bracket,
        grid_points=grid_points,
        iterations=iterations,
        converged=converged,
        n_matrices=len(arrays),
    )


def fit_d(
    matrix: TransitionMatrix | np.ndarray,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> DiffusionFit:
    """Calibrate D against one observed transition matrix.

    The objective is evaluated on a log-spaced grid over the bracket, then
    the surrounding cell of the grid minimum is refined by golden-section
    search down to an interval of width GOLDEN_TOL.
    """
    return _fit([matrix], bracket, grid_points)


def fit_d_pooled(
    matrices: Sequence[TransitionMatrix | np.ndarray],
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> DiffusionFit:
    """Calibrate a single D against several matrices jointly.

    Minimizes the sum of per-matrix Frobenius gaps, pooling cohorts that are
    assumed to share one mobility level.
    """
    return _fit(matrices, bracket, grid_points)
