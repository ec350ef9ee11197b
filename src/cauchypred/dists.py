"""Probability distribution functions used by the tests.

Thin wrappers over SciPy's special-function implementations (rational erf
approximations and regularized incomplete beta/gamma), which deliver the
absolute accuracy of about 1e-15 these tests rely on.  Only the handful of
functions the inference layer needs are exposed.
"""

from __future__ import annotations

import math

from scipy import special

from .errors import DomainError

_T_MODES = ("cdf", "two_sided_cv")


def std_normal(x: float) -> float:
    """Standard normal cdf."""
    return float(special.ndtr(x))


def student_t(x: float, df: int, mode: str = "cdf") -> float:
    """Student-t cdf or two-sided critical value.

    ``two_sided_cv`` interprets ``x`` as the level alpha and returns the c
    with P(|T_df| > c) = alpha.
    """
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df!r}")
    if mode == "cdf":
        return float(special.stdtr(df, x))
    if mode == "two_sided_cv":
        if not 0.0 < x < 1.0:
            raise DomainError(f"level must be in (0, 1), got {x}")
        return float(special.stdtrit(df, 1.0 - x / 2.0))
    raise DomainError(f"unknown mode {mode!r}, expected one of {_T_MODES}")


def chi_square_sf(x: float, k: int) -> float:
    """Chi-square survival function P(X > x) with k degrees of freedom."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {k!r}")
    if x < 0 or not math.isfinite(x):
        raise DomainError(f"chi-square argument must be finite and >= 0, got {x}")
    return float(special.gammaincc(k / 2.0, x / 2.0))
