"""Point estimators built on the sign instrument.

The central object is the Cauchy estimator: an IV slope estimate that uses
sign(x_{t-1}) as the instrument for the lagged predictor, making its
normalized numerator asymptotically (mixed) normal no matter how persistent
or heavy-tailed the predictor is.  This module also provides the group
decomposition of that numerator, plain OLS for residual-variance
estimation, the even/odd first-differenced variants used when an intercept
may be present, and recursive demeaning of predictor levels.

All estimators consume a :class:`RegressionSample`; they are pure functions
and safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DomainError,
    PartitionError,
    SingularDesignError,
)

Parity = str  # "even" | "odd"


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RegressionSample:
    """Aligned response and lagged-predictor series.

    ``y`` holds y_1..y_T and row t of ``x_lag`` holds the predictor values
    dated t-1, so each response is paired with the previous period's
    predictor.  ``x_level`` optionally carries the T+1 predictor levels
    x_0..x_T; it is required by the first-differenced estimators and must be
    consistent with ``x_lag`` (univariate only).
    """

    y: np.ndarray
    x_lag: np.ndarray
    x_level: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        y = _as_float_array(self.y, "y")
        x = _as_float_array(self.x_lag, "x_lag")
        if y.ndim != 1:
            raise DomainError("y must be one-dimensional")
        if x.ndim not in (1, 2):
            raise DomainError("x_lag must be a vector or a T x K matrix")
        if x.shape[0] != y.shape[0]:
            raise DomainError(
                f"y and x_lag lengths differ: {y.shape[0]} vs {x.shape[0]}"
            )
        if y.shape[0] < 2:
            raise DomainError("need at least 2 observations")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x_lag", x)
        if self.x_level is not None:
            lev = _as_float_array(self.x_level, "x_level")
            if lev.ndim != 1 or x.ndim != 1:
                raise DomainError("x_level is only supported for univariate samples")
            if lev.shape[0] != y.shape[0] + 1:
                raise DomainError(
                    f"x_level must have length T+1 = {y.shape[0] + 1}, got {lev.shape[0]}"
                )
            if not np.array_equal(lev[:-1], x):
                raise DomainError("x_lag must equal the first T entries of x_level")
            object.__setattr__(self, "x_level", lev)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_predictors(self) -> int:
        return 1 if self.x_lag.ndim == 1 else self.x_lag.shape[1]

    def x1(self) -> np.ndarray:
        """The single predictor column; errors if K > 1."""
        if self.n_predictors != 1:
            raise DomainError("operation requires a univariate sample")
        return self.x_lag if self.x_lag.ndim == 1 else self.x_lag[:, 0]

    def x_matrix(self) -> np.ndarray:
        return self.x_lag.reshape(self.n_obs, self.n_predictors)


def sign_conv(x):
    """Sign with the convention sign(0) = +1.

    Works elementwise on arrays; scalars come back as floats in {+1, -1}.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sign_conv requires finite input")
    out = np.where(arr >= 0.0, 1.0, -1.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CauchyFit:
    """Sign-instrument slope estimate with its normalized numerator.

    ``gamma`` is the instrument-weighted response sum divided by
    sqrt(n_used); it always equals ``denom * beta / sqrt(n_used)``.
    """

    beta: float
    gamma: float
    denom: float
    n_used: int


def _sign_fit(numer_terms: np.ndarray, denom_terms: np.ndarray) -> CauchyFit:
    """Slope and normalized numerator from per-observation instrument terms."""
    denom = float(denom_terms.sum())
    if denom == 0.0:
        raise DegenerateDenominatorError("sign-instrument denominator is zero")
    numer = float(numer_terms.sum())
    n_used = int(numer_terms.shape[0])
    return CauchyFit(
        beta=numer / denom,
        gamma=numer / np.sqrt(n_used),
        denom=denom,
        n_used=n_used,
    )


def cauchy_estimate(sample: RegressionSample) -> CauchyFit:
    """Full-sample sign-instrument slope estimate.

    beta = sum(sign(x_{t-1}) y_t) / sum(|x_{t-1}|), and gamma is the same
    numerator divided by sqrt(T).
    """
    x = sample.x1()
    return _sign_fit(sign_conv(x) * sample.y, np.abs(x))


@dataclass(frozen=True)
class GroupStatistics:
    """Per-group normalized numerators over q consecutive blocks."""

    q: int
    gammas: np.ndarray
    block_size: int
    dropped: int

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise PartitionError("group blocks must contain at least one observation")
        if not 0 <= self.dropped < self.q:
            raise PartitionError(f"invalid trailing remainder {self.dropped}")

    @classmethod
    def from_terms(cls, terms: np.ndarray, q: int) -> "GroupStatistics":
        """Sums of q consecutive blocks of per-observation numerator terms,
        scaled by sqrt(q / len(terms)); the tail beyond q blocks is dropped."""
        blocks, dropped = partition_consecutive(terms, q)
        scale = np.sqrt(q / terms.shape[0])
        gammas = scale * blocks.sum(axis=1)
        return cls(q=q, gammas=gammas, block_size=blocks.shape[1], dropped=dropped)


def partition_consecutive(values: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Split a series into q consecutive equal blocks, dropping the tail.

    Returns the (q, block) matrix and the number of trailing observations
    excluded.  Block size is floor(len/q).
    """
    n = values.shape[0]
    if q < 2:
        raise PartitionError(f"need at least 2 groups, got q={q}")
    block = n // q
    if block < 1:
        raise PartitionError(f"cannot split {n} observations into q={q} groups")
    dropped = n - q * block
    return values[: q * block].reshape(q, block), dropped


def group_gammas(sample: RegressionSample, q: int) -> GroupStatistics:
    """Normalized sign-instrument numerator within each of q blocks.

    Group j sums sign(x_{t-1}) y_t over its block of floor(T/q) consecutive
    observations and scales by sqrt(q/T) with T the full sample size.
    Trailing observations beyond q * floor(T/q) are excluded.
    """
    return GroupStatistics.from_terms(sign_conv(sample.x1()) * sample.y, q)


def ols_fit(
    sample: RegressionSample, intercept: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes and residuals.

    With ``intercept=True`` both sides are demeaned with full-sample means
    before the slope fit, and the returned residuals are those of the
    demeaned regression.  Residuals always have length T.
    """
    y = sample.y
    X = sample.x_matrix()
    if intercept:
        y = y - y.mean()
        X = X - X.mean(axis=0)
    xtx = X.T @ X
    k = X.shape[1]
    # for one predictor the rank test (an SVD) decides the same as xtx == 0
    singular = xtx[0, 0] == 0.0 if k == 1 else np.linalg.matrix_rank(xtx) < k
    if singular:
        raise SingularDesignError("design matrix is rank deficient")
    beta = np.linalg.solve(xtx, X.T @ y)
    residuals = y - X @ beta
    return beta, residuals


def omega_hat_sq(residuals) -> float:
    """Mean squared residual, the variance estimate used by hybrid tests."""
    r = _as_float_array(residuals, "residuals")
    return float(np.mean(r * r))


def diff_terms(sample: RegressionSample, parity: Parity) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair numerator and denominator terms of the differenced estimator.

    Even parity pairs the responses (y_{2t-1}, y_{2t}) with instrument
    sign(x_{2t-2}); odd parity pairs (y_{2t}, y_{2t+1}) with instrument
    sign(x_{2t-1}).  Summation starts at the smallest t for which every
    index exists, so the two parities use disjoint response differences.
    """
    if sample.x_level is None:
        raise DomainError("differenced estimators require x_level on the sample")
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    lev = sample.x_level
    # 0-based pair starts: 0, 2, 4, ... (even) or 1, 3, 5, ... (odd)
    i = np.arange(0 if parity == "even" else 1, sample.n_obs - 1, 2)
    if len(i) < 2:
        raise DomainError("need at least 2 usable differenced terms")
    inst = sign_conv(lev[i])
    return inst * (sample.y[i + 1] - sample.y[i]), inst * (lev[i + 1] - lev[i])


def diff_cauchy(sample: RegressionSample, parity: Parity) -> CauchyFit:
    """First-differenced sign-instrument estimate on one parity subsample.

    Differencing removes any intercept from the response; alternating pairs
    keep the instrument one full period ahead of the error difference.
    ``gamma`` is the numerator over sqrt(n_used), where n_used counts the
    differenced pairs (about T/2).
    """
    return _sign_fit(*diff_terms(sample, parity))


def recursive_demean(x_level) -> np.ndarray:
    """Subtract from each level the running mean of all levels up to it.

    Entry t of the output uses only entries 0..t of the input, preserving
    adaptedness; the first entry is always zero.
    """
    lev = _as_float_array(x_level, "x_level")
    if lev.ndim != 1:
        raise DomainError("x_level must be one-dimensional")
    running_mean = np.cumsum(lev) / np.arange(1, lev.shape[0] + 1)
    return lev - running_mean
