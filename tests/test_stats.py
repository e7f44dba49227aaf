from math import inf, nan, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility.stats import (
    ols_with_band,
    pearson,
    reg_inc_beta,
    t_cdf,
    t_quantile,
    two_tailed_p,
    welch_ttest,
)

# Two-tailed critical values of the t distribution, df 1, 5, 8, 30, 100.
T_CRIT_95 = [12.70620474, 2.570581836, 2.306004135, 2.042272456, 1.983971518]
T_CRIT_99 = [63.65674116, 4.032142984, 3.355387331, 2.749995654, 2.625890521]
DFS = [1, 5, 8, 30, 100]


def exact_r_pair(r, n=10):
    """x and y whose sample correlation equals r up to rounding."""
    x = np.arange(float(n))
    xd = x - x.mean()
    u = xd / np.linalg.norm(xd)
    raw = xd**2
    zd = raw - raw.mean()
    zd -= (zd @ u) * u
    v = zd / np.linalg.norm(zd)
    return x, r * u + sqrt(1.0 - r * r) * v


def test_reg_inc_beta_is_uniform_cdf_for_unit_shapes():
    assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-12)


def test_reg_inc_beta_power_law_case():
    # Beta(2, 1) has CDF x^2.
    assert reg_inc_beta(2.0, 1.0, 0.7) == pytest.approx(0.49, rel=1e-12)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(3.0, 4.0, 0.0) == 0.0
    assert reg_inc_beta(3.0, 4.0, 1.0) == 1.0


def test_reg_inc_beta_rejects_bad_arguments():
    with pytest.raises(ValueError, match="shape parameters must be positive"):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="x must lie in"):
        reg_inc_beta(1.0, 1.0, 1.5)


@settings(max_examples=60)
@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_reg_inc_beta_symmetry_identity(a, b, x):
    assert reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) == pytest.approx(
        1.0, abs=1e-12
    )


def test_two_tailed_p_basics():
    assert two_tailed_p(0.0, 5.0) == 1.0
    assert two_tailed_p(inf, 5.0) == 5e-324
    assert two_tailed_p(-inf, 5.0) == 5e-324
    assert two_tailed_p(1.3, 7.0) == two_tailed_p(-1.3, 7.0)


def test_two_tailed_p_rejects_bad_arguments():
    with pytest.raises(ValueError, match="degrees of freedom must be positive"):
        two_tailed_p(1.0, 0.0)
    with pytest.raises(ValueError, match="t statistic is NaN"):
        two_tailed_p(nan, 5.0)


@pytest.mark.parametrize("df,crit", list(zip(DFS, T_CRIT_95)))
def test_t_quantile_matches_95_table(df, crit):
    assert t_quantile(0.975, df) == pytest.approx(crit, abs=1e-7)


@pytest.mark.parametrize("df,crit", list(zip(DFS, T_CRIT_99)))
def test_t_quantile_matches_99_table(df, crit):
    assert t_quantile(0.995, df) == pytest.approx(crit, abs=1e-7)


def test_t_quantile_matches_reference_implementation():
    scipy_stats = pytest.importorskip("scipy.stats")
    for p in (0.9, 0.975, 0.995):
        for df in DFS:
            assert t_quantile(p, df) == pytest.approx(
                scipy_stats.t.ppf(p, df), abs=1e-8
            )


def test_t_quantile_median_and_symmetry():
    assert t_quantile(0.5, 9.0) == 0.0
    assert t_quantile(0.1, 9.0) == pytest.approx(-t_quantile(0.9, 9.0), rel=1e-10)


def test_t_quantile_rejects_bad_p():
    with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
        t_quantile(0.0, 5.0)
    with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
        t_quantile(1.0, 5.0)


def test_t_cdf_center_and_symmetry():
    assert t_cdf(0.0, 4.0) == 0.5
    assert t_cdf(-2.0, 4.0) == pytest.approx(1.0 - t_cdf(2.0, 4.0), abs=1e-14)


@pytest.mark.parametrize("p", [0.6, 0.9, 0.975])
@pytest.mark.parametrize("df", [3.0, 25.0])
def test_t_cdf_inverts_quantile(p, df):
    assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-10)


def test_pearson_worked_example():
    # Deviations (-1, 0, 1) and (-1, 1, 0) give r = 1/2; with df = 1 the
    # t statistic is tan(pi/6), so the two-tailed p is exactly 2/3.
    result = pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert result.r == pytest.approx(0.5, rel=1e-12)
    assert result.p == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert result.n == 3


def test_pearson_perfect_correlation():
    result = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert result.r == 1.0
    assert result.p == 5e-324


def test_pearson_rejects_bad_input():
    with pytest.raises(ValueError, match="pearson needs at least three points"):
        pearson([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError, match="undefined correlation"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="flat sequences of equal length"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_pearson_significance_threshold_at_df_8():
    # With ten points the 5 percent two-tailed critical r is about 0.6319.
    crit = 0.631897
    x, y = exact_r_pair(crit)
    assert pearson(x, y).p == pytest.approx(0.05, abs=1e-4)
    x, y = exact_r_pair(0.64)
    assert pearson(x, y).p < 0.05
    x, y = exact_r_pair(0.62)
    assert pearson(x, y).p > 0.05


def test_pearson_matches_reference_implementation():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    y = 0.4 * x + rng.normal(size=30)
    ours = pearson(x, y)
    theirs = scipy_stats.pearsonr(x, y)
    assert ours.r == pytest.approx(theirs.statistic, abs=1e-12)
    assert ours.p == pytest.approx(theirs.pvalue, rel=1e-9)


def test_ols_worked_example():
    fit = ols_with_band([0.0, 1.0, 2.0], [0.0, 0.0, 3.0])
    assert fit.slope == pytest.approx(1.5, rel=1e-12)
    assert fit.intercept == pytest.approx(-0.5, rel=1e-12)
    assert fit.band(2.0)[0][0] == pytest.approx(2.5, rel=1e-12)
    assert fit.residual_var == pytest.approx(1.5, rel=1e-12)
    assert fit.t_crit == pytest.approx(T_CRIT_95[0], abs=1e-6)
    assert fit.confidence == 0.95
    mid, lower, upper = fit.band(1.0)
    assert mid[0] == pytest.approx(1.0, abs=1e-12)
    half = fit.t_crit * sqrt(1.5 / 3.0)
    assert upper[0] - mid[0] == pytest.approx(half, rel=1e-9)
    assert mid[0] - lower[0] == pytest.approx(half, rel=1e-9)


def test_ols_band_collapses_on_exact_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = ols_with_band(x, 2.0 * x + 1.0)
    mid, lower, upper = fit.band(x)
    np.testing.assert_allclose(lower, mid, atol=1e-9)
    np.testing.assert_allclose(upper, mid, atol=1e-9)


def test_ols_band_narrowest_at_mean_x():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 9.0, 10)
    y = 1.0 + 0.5 * x + rng.normal(scale=0.3, size=10)
    fit = ols_with_band(x, y)
    mid, lower, _ = fit.band(np.array([fit.x_mean - 2.0, fit.x_mean, fit.x_mean + 2.0]))
    widths = mid - lower
    assert widths[1] < widths[0]
    assert widths[1] < widths[2]


def test_ols_rejects_bad_input():
    with pytest.raises(ValueError, match="regression needs at least three points"):
        ols_with_band([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="x has zero variance"):
        ols_with_band([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="flat sequences of equal length"):
        ols_with_band([0.0, 1.0, 2.0], [0.0, 1.0])


def test_welch_zero_variance_conventions():
    equal = welch_ttest([3.0, 3.0], [3.0, 3.0])
    assert equal.t == 0.0
    assert equal.p == 1.0
    assert equal.df == 2.0
    higher = welch_ttest([4.0, 4.0], [3.0, 3.0])
    assert higher.t == inf
    assert higher.p == 5e-324
    assert welch_ttest([3.0, 3.0], [4.0, 4.0]).t == -inf


def test_welch_needs_two_values_per_sample():
    with pytest.raises(ValueError, match="each sample needs at least two values"):
        welch_ttest([1.0], [2.0, 3.0])


def test_welch_antisymmetric_in_sample_order():
    a = [1.0, 2.0, 4.0]
    b = [2.0, 5.0, 6.0, 9.0]
    assert welch_ttest(a, b).t == pytest.approx(-welch_ttest(b, a).t, rel=1e-12)


def test_welch_matches_reference_implementation():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 1.0, size=12)
    b = rng.normal(0.8, 2.0, size=17)
    ours = welch_ttest(a, b)
    theirs = scipy_stats.ttest_ind(a, b, equal_var=False)
    assert ours.t == pytest.approx(theirs.statistic, abs=1e-12)
    assert ours.p == pytest.approx(theirs.pvalue, rel=1e-10)
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    se_sq = var_a / 12 + var_b / 17
    df = se_sq**2 / ((var_a / 12) ** 2 / 11 + (var_b / 17) ** 2 / 16)
    assert ours.df == pytest.approx(df, rel=1e-12)
    assert ours.mean_a == pytest.approx(a.mean())
    assert ours.mean_b == pytest.approx(b.mean())
