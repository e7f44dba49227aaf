"""Gini inequality of citation impact, per cohort and per population window."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .csvio import write_csv

DEFAULT_MIN_COHORT = 100


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of nonnegative values, mean absolute difference form.

    G = sum_ij |x_i - x_j| / (2 n^2 mean), computed via the sorted
    equivalent in O(n log n): G = (2 sum_k k x_(k) - (n+1) sum x) / (n sum x)
    with k = 1..n over ascending x. No small-sample correction is applied,
    so the maximum for n values is (n-1)/n, not 1.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("gini expects a flat sequence")
    n = len(x)
    if n < 2:
        raise ValueError("gini needs at least two values")
    if (x < 0).any():
        raise ValueError("gini is undefined for negative values")
    total = x.sum()
    if total == 0:
        raise ValueError("gini is undefined when all values are zero")
    xs = np.sort(x)
    ranks = np.arange(1, n + 1, dtype=float)
    return float((2.0 * (ranks * xs).sum() - (n + 1) * total) / (n * total))


@dataclass(eq=False)
class GiniSeries:
    """One Gini value per year, with cohort sizes, as cohort_gini_series
    builds it.

    The years are career start years (cohort mode) or the starts of 5-year
    activity windows (population mode). Years with fewer authors than two or
    the configured minimum, or whose impacts are all zero (the Gini is
    undefined), are omitted and listed in skipped.
    """

    years: np.ndarray
    values: np.ndarray
    n_authors: np.ndarray
    skipped: tuple[int, ...] = field(default=())


def cohort_gini_series(
    impacts_by_year: Mapping[int, Sequence[float]],
    min_cohort: int = DEFAULT_MIN_COHORT,
) -> GiniSeries:
    """Gini of the impacts given for each year, years in ascending order.

    impacts_by_year maps each year to the impacts of the authors counted in
    it: a cohort's members in one career window (cohort.cohort_impacts), or
    a window's population (cohort.population_impacts).
    """
    years: list[int] = []
    values: list[float] = []
    sizes: list[int] = []
    skipped: list[int] = []
    for year in sorted(impacts_by_year):
        impacts = impacts_by_year[year]
        if len(impacts) < max(min_cohort, 2) or not np.any(impacts):
            skipped.append(year)
            continue
        years.append(year)
        values.append(gini(impacts))
        sizes.append(len(impacts))
    return GiniSeries(
        years=np.array(years, dtype=np.int64),
        values=np.array(values),
        n_authors=np.array(sizes, dtype=np.int64),
        skipped=tuple(skipped),
    )


_GINI_SERIES_HEADER = ("year", "gini", "n_authors")


def write_gini_series_csv(path: str | Path, series: GiniSeries) -> None:
    rows = (
        [str(int(y)), repr(float(g)), str(int(n))]
        for y, g, n in zip(series.years, series.values, series.n_authors)
    )
    write_csv(path, _GINI_SERIES_HEADER, rows)
