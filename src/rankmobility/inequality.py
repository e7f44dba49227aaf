"""Gini inequality of citation impact, per cohort and per population window."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import Careers
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
    """One Gini value per year, with cohort sizes.

    The years are career start years (cohort_gini_series) or the starts of
    5-year activity windows (population_gini_series). Years with fewer
    authors than two or the configured minimum, or whose impacts are all
    zero (the Gini is undefined), are omitted and listed in skipped.
    """

    years: np.ndarray
    values: np.ndarray
    n_authors: np.ndarray
    skipped: tuple[int, ...] = field(default=())


def _series(impacts_by_year: Iterable[tuple[int, Sequence[float]]], min_size: int) -> GiniSeries:
    """The series over (year, impacts) pairs, taken in the order given."""
    years: list[int] = []
    values: list[float] = []
    sizes: list[int] = []
    skipped: list[int] = []
    for year, impacts in impacts_by_year:
        if len(impacts) < max(min_size, 2) or not np.any(impacts):
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


def cohort_gini_series(
    impacts_by_year: Mapping[int, Sequence[float]],
    min_cohort: int = DEFAULT_MIN_COHORT,
) -> GiniSeries:
    """Gini of cohort members' impacts per career start year.

    impacts_by_year maps each start year to its members' impacts in one
    career window (cohort.cohort_impacts gives both windows). Years are
    taken in ascending order.
    """
    by_year = ((year, impacts_by_year[year]) for year in sorted(impacts_by_year))
    return _series(by_year, min_cohort)


def population_gini_series(
    careers: Careers,
    discipline: str,
    window_start_years: Sequence[int],
    min_authors: int = DEFAULT_MIN_COHORT,
) -> GiniSeries:
    """Gini over everyone publishing in the discipline per 5-year window.

    Unlike the cohort mode this ignores career stage: an author is in the
    window's population when they have at least one publication tagged with
    the discipline inside [year, year+4], and their impact is the c5 sum of
    those publications.
    """

    def population(year: int) -> np.ndarray:
        active, impacts = careers.impacts(discipline, year, year + 4)
        return impacts[active]

    by_year = ((year, population(year)) for year in window_start_years)
    return _series(by_year, min_authors)


_GINI_SERIES_HEADER = ("year", "gini", "n_authors")


def write_gini_series_csv(path: str | Path, series: GiniSeries) -> None:
    rows = (
        [str(int(y)), repr(float(g)), str(int(n))]
        for y, g, n in zip(series.years, series.values, series.n_authors)
    )
    write_csv(path, _GINI_SERIES_HEADER, rows)
