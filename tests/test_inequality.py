import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility.cohort import cohort_impacts, population_impacts
from rankmobility.csvio import read_csv
from rankmobility.inequality import cohort_gini_series, gini, write_gini_series_csv

from conftest import careers_of


def test_gini_two_point_split():
    assert gini([0.0, 1.0]) == 0.5


def test_gini_equal_values():
    assert gini(np.ones(5)) == 0.0
    assert gini([7.0, 7.0, 7.0]) == 0.0


@pytest.mark.parametrize("n", [2, 5, 10])
def test_gini_maximum_is_one_minus_one_over_n(n):
    values = [0.0] * (n - 1) + [1.0]
    assert gini(values) == pytest.approx((n - 1) / n, abs=1e-15)


def test_gini_scale_invariant():
    x = np.array([1.0, 4.0, 2.0, 9.0])
    assert gini(3.7 * x) == pytest.approx(gini(x), rel=1e-12)


def test_gini_permutation_invariant():
    assert gini([4.0, 1.0, 9.0, 2.0]) == gini([1.0, 2.0, 4.0, 9.0])


# Zeros are legal inputs; nonzero draws stay clear of subnormals, where the
# oracle's 2 n^2 mean denominator (not the implementation) would underflow.
@settings(max_examples=60)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
        min_size=2,
        max_size=50,
    ).filter(lambda v: sum(v) > 0)
)
def test_gini_matches_quadratic_oracle(values):
    x = np.asarray(values)
    n = len(x)
    brute = float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))
    assert gini(values) == pytest.approx(brute, abs=1e-12, rel=1e-9)


def test_gini_rejects_matrix_input():
    with pytest.raises(ValueError, match="gini expects a flat sequence"):
        gini(np.ones((2, 2)))


def test_gini_rejects_single_value():
    with pytest.raises(ValueError, match="gini needs at least two values"):
        gini([5.0])


def test_gini_rejects_negative_values():
    with pytest.raises(ValueError, match="gini is undefined for negative values"):
        gini([1.0, -1.0])


def test_gini_rejects_all_zero():
    with pytest.raises(ValueError, match="gini is undefined when all values are zero"):
        gini([0.0, 0.0])


def chemistry_careers():
    return careers_of(
        ("a", [(2000, "Chemistry", 0), (2005, "Chemistry", 3)]),
        ("b", [(2000, "Chemistry", 1), (2005, "Chemistry", 3)]),
        ("c", [(2000, "Chemistry", 2), (2006, "Chemistry", 3)]),
        ("d", [(2000, "Chemistry", 5), (2007, "Chemistry", 3)]),
        # Started in 1999, so outside the 2000 cohort.
        ("e", [(1999, "Chemistry", 7), (2003, "Chemistry", 4), (2005, "Chemistry", 1)]),
        # No second-window publication, so outside the cohort but in the population.
        ("f", [(2000, "Chemistry", 10)]),
        ("g", [(2000, "Biology", 6), (2005, "Biology", 2)]),
    )


def chemistry_impacts(years, window):
    """Per start year, the Chemistry cohort's impacts in one career window."""
    careers = chemistry_careers()
    impacts = {}
    for year in years:
        _, impact1, impact2 = cohort_impacts(careers, "Chemistry", year)
        impacts[year] = impact1 if window == 1 else impact2
    return impacts


def test_cohort_series_first_window():
    series = cohort_gini_series(chemistry_impacts([2000, 2001], 1), min_cohort=2)
    assert series.years.tolist() == [2000]
    # Window-1 impacts of the four members are 0, 1, 2, 5.
    assert series.values[0] == pytest.approx(gini([0, 1, 2, 5]))
    assert series.n_authors.tolist() == [4]
    assert series.skipped == (2001,)


def test_cohort_series_second_window():
    series = cohort_gini_series(chemistry_impacts([2000], 2), min_cohort=2)
    assert series.values.tolist() == [0.0]


def test_cohort_series_skips_all_zero_years_and_sorts():
    series = cohort_gini_series({2001: [0, 0, 0], 2000: [1, 2, 3]}, min_cohort=2)
    assert series.years.tolist() == [2000]
    assert series.skipped == (2001,)


def test_cohort_series_skips_a_one_author_year_whatever_the_minimum():
    for min_cohort in (0, 1):
        series = cohort_gini_series({2000: [5], 2001: [1, 2, 3]}, min_cohort=min_cohort)
        assert series.years.tolist() == [2001]
        assert series.skipped == (2000,)


def test_cohort_series_min_size_skips_everything():
    series = cohort_gini_series(chemistry_impacts([2000, 2001], 1), min_cohort=5)
    assert series.years.tolist() == []
    assert series.skipped == (2000, 2001)


def population_series(years):
    """The Chemistry population series over 5-year windows starting in years."""
    careers = chemistry_careers()
    return cohort_gini_series({year: population_impacts(careers, "Chemistry", year) for year in years}, min_cohort=2)


def test_population_series_ignores_career_stage():
    series = population_series([2000])
    assert series.years.tolist() == [2000]
    # Everyone with a Chemistry paper in 2000-2004: a, b, c, d, e (its 2003
    # paper only), and f, which the cohort mode would drop.
    assert series.n_authors.tolist() == [6]
    assert series.values[0] == pytest.approx(gini([0, 1, 2, 5, 4, 10]))


def test_population_series_skips_thin_windows():
    series = population_series([2000, 2020])
    assert series.years.tolist() == [2000]
    assert series.skipped == (2020,)


def test_series_csv_round_trip(tmp_path):
    series = cohort_gini_series(chemistry_impacts([2000], 1), min_cohort=2)
    path = tmp_path / "gini.csv"
    write_gini_series_csv(path, series)
    back = list(read_csv(path, "gini series", ("year", "gini", "n_authors"), parse=list))
    assert [int(r[0]) for r in back] == series.years.tolist()
    assert [float(r[1]) for r in back] == series.values.tolist()
    assert [int(r[2]) for r in back] == series.n_authors.tolist()


def test_series_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("year,value\n2000,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a gini series file"):
        list(read_csv(path, "gini series", ("year", "gini", "n_authors"), parse=list))
