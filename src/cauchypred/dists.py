"""Probability distribution functions used by the tests, on numpy alone.

* Normal cdf: ``0.5 erfc(-x / sqrt 2)``, which keeps its relative accuracy
  deep in the lower tail.
* Student-t cdf at integer degrees of freedom: the lower tail
  P(T <= -|x|) = I_z(df/2, 1/2) / 2 with z = df / (df + x^2), where the
  regularized incomplete beta I is its power series of positive terms.
  For z below (a + 1) / (a + b + 2) the small tail is summed directly;
  above it I is not small and is taken as 1 - I_{1-z}(1/2, df/2), so the
  tail is never formed as 1 - cdf.  Vectorized over x, so one call serves a
  whole batch of statistics.
* Two-sided critical values of the Student-t (:func:`student_t_two_sided_cv`)
  and the normal (:func:`std_normal_two_sided_cv`): Newton's method on the
  log tail.
* Chi-square survival function at integer k: the finite Poisson sums.

The distribution functions accept a scalar or an array; a scalar comes
back as a float.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the incomplete beta series stops once its remainder is below this share of the sum
_SERIES_TOL = 1e-17
# |t| is capped here, far beyond where every tail is 0
_ABS_T_MAX = 1e150


def _returned(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _erfc(x: np.ndarray) -> np.ndarray:
    flat = map(math.erfc, x.ravel().tolist())
    return np.fromiter(flat, dtype=float, count=x.size).reshape(x.shape)


def std_normal(x):
    """Standard normal cdf."""
    return _returned(0.5 * _erfc(-np.asarray(x, dtype=float) / _SQRT2))


def _check_df(df) -> None:
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df!r}")


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _t_lower_tail(x: np.ndarray, df: int) -> np.ndarray:
    """P(T_df <= -|x|) = I_z(a, b) / 2 with a = df / 2, b = 1/2, elementwise.

    I_z(a, b) is summed directly where z < (a + 1) / (a + b + 2), elsewhere
    as 1 - I_w(b, a) with w = 1 - z.  Either I_x(p, q) is its power series

        I_x(p, q) = x^p (1 - x)^q / (p B(p, q)) * sum_n (p + q)_n / (p + 1)_n x^n

    (DLMF 8.17.8), whose terms are all positive, so nothing cancels.  Term n
    is the product of the first n ratios (p + q + i) / (p + 1 + i) * x, none
    of which exceeds max((p + q) / (p + 1), 1) * x, nor, over the x each
    branch takes, ``bound`` below.  Every element sums the same number of
    terms, the first at which that bound raised to it falls below 1e-17 of
    the sum (at least 1), so a value does not depend on the others it is
    computed with.
    """
    a, b = df / 2.0, 0.5
    t = np.minimum(np.abs(x.reshape(-1)), _ABS_T_MAX)  # keeps z and w finite at |x| = inf
    t2 = t * t
    z = df / (df + t2)
    w = t2 / (df + t2)  # 1 - z without cancellation
    split = (a + 1.0) / (a + b + 2.0)
    direct = z < split
    arg, rest = np.where(direct, z, w), np.where(direct, w, z)
    p, q = np.where(direct, a, b), np.where(direct, b, a)
    bound = max(split, max((a + b) / (b + 1.0), 1.0) * (1.0 - split))
    n_terms = math.ceil(math.log(_SERIES_TOL * (1.0 - bound)) / math.log(bound))
    i = np.arange(n_terms)
    # one (x, terms) work array: the ratios, then the terms, then their running products
    terms = np.where(direct[:, None], (a + b + i) / (a + 1.0 + i), (a + b + i) / (b + 1.0 + i))
    terms *= arg[:, None]
    series = 1.0 + np.cumprod(terms, axis=1, out=terms).sum(axis=1)
    ix = arg**p * rest**q / (p * math.exp(_log_beta(a, b))) * series  # B(a, b) = B(b, a)
    return 0.5 * np.where(direct, ix, 1.0 - ix).reshape(x.shape)


def _t_pdf(x: float, df: int) -> float:
    return math.exp(-(df + 1) / 2.0 * math.log1p(x * x / df) - _log_beta(df / 2.0, 0.5)) / math.sqrt(df)


def student_t(x, df: int):
    """Student-t cdf at integer df."""
    _check_df(df)
    x = np.asarray(x, dtype=float)
    tail = _t_lower_tail(x, df)
    return _returned(np.where(x <= 0.0, tail, 1.0 - tail))


def _two_sided_cv(alpha: float, lower_tail, pdf) -> float:
    """The c > 0 with lower_tail(c) = P(X <= -c) = alpha / 2, for X symmetric.

    Newton's method in u = log c on log P(X <= -c), which for the t and the
    normal is concave and decreasing in u, so every step from the start,
    the df = 1 t quantile tan(pi (1 - alpha) / 2) (no t or normal quantile
    is larger), lands at or above the root and the iterates decrease to it.
    Convergence is quadratic, so after a step below 1e-10 the error left is
    below rounding.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"level must be in (0, 1), got {alpha}")
    target = math.log(alpha / 2.0)
    c = math.tan(math.pi * (1.0 - alpha) / 2.0)
    for _ in range(200):
        tail = lower_tail(c)
        if tail == 0.0:  # underflow far out: step back toward the root
            c /= 2.0
            continue
        slope = -pdf(c) * c / tail  # d log(tail) / d log(c)
        step = (math.log(tail) - target) / slope
        c *= math.exp(-step)
        if abs(step) <= 1e-10:
            return c
    raise ArithmeticError("critical value iteration did not converge")


def student_t_two_sided_cv(alpha: float, df: int) -> float:
    """The two-sided critical value at level alpha: the c > 0 with
    P(|T_df| > c) = alpha, so P(T_df <= -c) = alpha / 2."""
    _check_df(df)
    return _two_sided_cv(alpha, lambda c: float(_t_lower_tail(np.array(c), df)), lambda c: _t_pdf(c, df))


def std_normal_two_sided_cv(alpha: float) -> float:
    """The two-sided normal critical value at level alpha: the c > 0 with
    P(|Z| > c) = alpha, so P(Z <= -c) = alpha / 2."""
    return _two_sided_cv(alpha, lambda c: std_normal(-c), lambda c: math.exp(-0.5 * c * c) / _SQRT_2PI)


def chi_square_sf(x, k: int):
    """Chi-square survival function P(X > x) with k degrees of freedom.

    With h = x / 2: exp(-h) sum_{j < k/2} h^j / j! for even k, and
    erfc(sqrt h) + exp(-h) sum_{j <= (k-3)/2} h^(j+1/2) / Gamma(j + 3/2) for
    odd k; every term is nonnegative, so nothing cancels.
    """
    _check_df(k)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DomainError(f"chi-square argument must be finite and >= 0, got {x}")
    h = x / 2.0
    if k % 2 == 0:
        term, total, j = np.exp(-h), np.zeros_like(h), 0.0
    else:
        term, total, j = np.exp(-h) * np.sqrt(h) / math.gamma(1.5), _erfc(np.sqrt(h)), 0.5
    for _ in range(k // 2):
        total = total + term
        j += 1.0
        term = term * h / j
    return _returned(total)
