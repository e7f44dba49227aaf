"""Inferential statistics: correlation, regression bands, t-tests.

Tail probabilities come from the t distribution evaluated through the
regularized incomplete beta function, computed here with a continued
fraction (modified Lentz scheme). The identity used throughout: for t with
df degrees of freedom, the two-tailed probability of exceeding |t| is
I_x(df/2, 1/2) with x = df / (df + t^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, isnan, lgamma, log, sqrt
from typing import Sequence

import numpy as np

_ITMAX = 400
_EPS = 1e-14
_FPMIN = 1e-300
# Smallest positive float; p-values are clamped here so they stay in (0, 1].
_TINY_P = 5e-324
BAND_CONFIDENCE = 0.95


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError("shape parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = exp(
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    )
    # The continued fraction converges fast only on its own side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def two_tailed_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ t(df), clamped into (0, 1]."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if isnan(t):
        raise ValueError("t statistic is NaN")
    if t == 0.0:
        return 1.0
    if t in (inf, -inf):
        return _TINY_P
    x = df / (df + t * t)
    p = reg_inc_beta(df / 2.0, 0.5, x)
    return min(1.0, max(p, _TINY_P))


def t_cdf(t: float, df: float) -> float:
    """Cumulative distribution of the t distribution with df > 0."""
    half_tail = two_tailed_p(t, df) / 2.0 if t != 0.0 else 0.5
    return 1.0 - half_tail if t >= 0 else half_tail


def t_quantile(p: float, df: float) -> float:
    """Inverse t CDF by bisection (monotone, so plain bisection suffices)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("t quantile out of range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Correlation:
    r: float
    p: float
    n: int


def pearson(x: Sequence[float], y: Sequence[float]) -> Correlation:
    """Pearson correlation with a two-tailed p-value.

    The p-value comes from t = r sqrt((n-2) / (1-r^2)) against t(n-2); a
    perfect correlation gives the smallest positive p rather than zero.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be flat sequences of equal length")
    n = len(xa)
    if n < 3:
        raise ValueError("pearson needs at least three points")
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    sxx = float(xd @ xd)
    syy = float(yd @ yd)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("undefined correlation")
    r = float(xd @ yd) / sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    denom = 1.0 - r * r
    if denom <= 0.0:
        t = inf if r > 0 else -inf
    else:
        t = r * sqrt(df / denom)
    return Correlation(r=r, p=two_tailed_p(t, df), n=n)


@dataclass(frozen=True)
class Regression:
    """Ordinary least squares line with a pointwise mean-response band."""

    slope: float
    intercept: float
    n: int
    x_mean: float
    sxx: float
    residual_var: float
    confidence: float
    t_crit: float

    def band(self, x: float | Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fit, lower, upper) of the confidence band for the mean response."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        fit = self.slope * xs + self.intercept
        half = self.t_crit * np.sqrt(
            self.residual_var * (1.0 / self.n + (xs - self.x_mean) ** 2 / self.sxx)
        )
        return fit, fit - half, fit + half


def ols_with_band(x: Sequence[float], y: Sequence[float]) -> Regression:
    """Least-squares line y = a x + b with a confidence band for the mean.

    The band half-width at x0 is t * s * sqrt(1/n + (x0 - xbar)^2 / Sxx)
    with s^2 the residual variance on n-2 degrees of freedom; it is
    narrowest at the mean of x and zero everywhere for an exact linear fit.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be flat sequences of equal length")
    n = len(xa)
    if n < 3:
        raise ValueError("regression needs at least three points")
    x_mean = float(xa.mean())
    xd = xa - x_mean
    sxx = float(xd @ xd)
    if sxx == 0.0:
        raise ValueError("x has zero variance")
    slope = float(xd @ ya) / sxx
    intercept = float(ya.mean()) - slope * x_mean
    residuals = ya - (slope * xa + intercept)
    residual_var = float(residuals @ residuals) / (n - 2)
    t_crit = t_quantile(0.5 + BAND_CONFIDENCE / 2.0, n - 2)
    return Regression(
        slope=slope,
        intercept=intercept,
        n=n,
        x_mean=x_mean,
        sxx=sxx,
        residual_var=residual_var,
        confidence=BAND_CONFIDENCE,
        t_crit=t_crit,
    )


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float
    mean_a: float
    mean_b: float


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sample two-tailed t-test without assuming equal variances.

    Uses the Welch-Satterthwaite degrees of freedom. When both samples have
    zero variance: equal means give t = 0, p = 1; different means give an
    infinite statistic and the smallest positive p.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    na, nb = len(xa), len(xb)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two values")
    mean_a = float(xa.mean())
    mean_b = float(xb.mean())
    var_a = float(xa.var(ddof=1))
    var_b = float(xb.var(ddof=1))
    se_sq = var_a / na + var_b / nb
    if se_sq == 0.0:
        if mean_a == mean_b:
            return TTestResult(t=0.0, df=float(na + nb - 2), p=1.0, mean_a=mean_a, mean_b=mean_b)
        t = inf if mean_a > mean_b else -inf
        return TTestResult(t=t, df=float(na + nb - 2), p=_TINY_P, mean_a=mean_a, mean_b=mean_b)
    t = (mean_a - mean_b) / sqrt(se_sq)
    df = se_sq**2 / (
        (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
    )
    return TTestResult(t=float(t), df=float(df), p=two_tailed_p(float(t), df), mean_a=mean_a, mean_b=mean_b)
