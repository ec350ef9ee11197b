"""Point estimators built on the sign instrument.

The central object is the Cauchy estimator: an IV slope estimate that uses
sign(x_{t-1}) as the instrument for the lagged predictor, making its
normalized numerator asymptotically (mixed) normal no matter how persistent
or heavy-tailed the predictor is.  This module also provides the group
decomposition of that numerator, plain OLS for residual-variance
estimation, the even/odd first-differenced variants used when an intercept
may be present, and recursive demeaning of predictor levels.

Every statistic is computed once, by a kernel over the last axis of its
arrays, so the same code serves one :class:`RegressionSample` and a
:class:`SampleBatch` of R samples held as (R, T) arrays (the Monte Carlo
engine's unit of work).  Data is validated where it enters, when a sample
or a batch is built, not again by each statistic.  The estimators are pure
functions and safe for unrestricted concurrent use.
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
PARITIES = ("even", "odd")


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


class SampleBatch:
    """R univariate samples of one length T, as the rows of (R, T) arrays.

    ``y`` and ``x_lag`` are (R, T); the optional ``x_level`` is (R, T + 1)
    and its first T columns equal ``x_lag``, as for
    :class:`RegressionSample`.  The data is validated once, on
    construction.  The intermediates a test needs (:meth:`terms`,
    :meth:`residual_variance`) are cached on the batch, so every method
    evaluated on it shares them.
    """

    __slots__ = ("y", "x_lag", "x_level", "_cache")

    def __init__(self, y, x_lag, x_level=None) -> None:
        y = _as_float_array(y, "y")
        x = _as_float_array(x_lag, "x_lag")
        if y.ndim != 2 or x.shape != y.shape:
            raise DomainError("y and x_lag must be (R, T) arrays of one shape")
        if y.shape[1] < 2:
            raise DomainError("need at least 2 observations")
        if x_level is not None:
            x_level = _as_float_array(x_level, "x_level")
            if x_level.shape != (y.shape[0], y.shape[1] + 1):
                raise DomainError("x_level must be an (R, T + 1) array")
            if not np.array_equal(x_level[:, :-1], x):
                raise DomainError("x_lag must equal the first T columns of x_level")
        self._set(y, x, x_level)

    def _set(self, y, x_lag, x_level) -> None:
        self.y, self.x_lag, self.x_level = y, x_lag, x_level
        self._cache: dict = {}

    @classmethod
    def of(cls, sample: RegressionSample) -> "SampleBatch":
        """A univariate sample, already validated, as a batch of one."""
        batch = cls.__new__(cls)
        lev = sample.x_level
        batch._set(sample.y[None], sample.x1()[None], None if lev is None else lev[None])
        return batch

    def terms(self, parity: Optional[Parity] = None) -> tuple[np.ndarray, np.ndarray]:
        """Numerator and denominator terms of the sign-instrument estimator:
        the levels form for ``parity=None``, else the differenced pairs of
        that parity (see :func:`diff_terms`)."""
        key = ("terms", parity)
        if key not in self._cache:
            self._cache[key] = _sign_terms(self.y, self.x_lag, self.x_level, parity)
        return self._cache[key]

    def residual_variance(self, intercept: bool) -> tuple[np.ndarray, np.ndarray]:
        """omega_hat^2 of each row's OLS fit (see :func:`ols_fit`), and
        whether the row's design is singular."""
        key = ("omega", intercept)
        if key not in self._cache:
            _, residuals, singular = _ols(self.y, self.x_lag[..., None], intercept)
            self._cache[key] = (_mean_square(residuals), singular)
        return self._cache[key]


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def sign_conv(x):
    """Sign with the convention sign(0) = +1.

    Works elementwise on arrays; scalars come back as floats in {+1, -1}.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sign_conv requires finite input")
    out = _sign(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CauchyFit:
    """Sign-instrument slope estimate with its normalized numerator.

    ``gamma`` is the instrument-weighted response sum divided by
    sqrt(n_used); it always equals ``denom * beta / sqrt(n_used)``.  Fitted
    over a batch, the fields are arrays over its samples and ``beta`` is
    nan where ``denom`` is zero.
    """

    beta: float
    gamma: float
    denom: float
    n_used: int


def _sign_fit(numer_terms: np.ndarray, denom_terms: np.ndarray) -> CauchyFit:
    """Slope and normalized numerator from instrument terms on the last axis."""
    numer = numer_terms.sum(axis=-1)
    denom = denom_terms.sum(axis=-1)
    n_used = int(numer_terms.shape[-1])
    return CauchyFit(
        beta=numer / np.where(denom == 0.0, np.nan, denom),
        gamma=numer / np.sqrt(n_used),
        denom=denom,
        n_used=n_used,
    )


def _checked_fit(numer_terms: np.ndarray, denom_terms: np.ndarray) -> CauchyFit:
    """The fit of one sample's terms; a zero denominator is an error."""
    fit = _sign_fit(numer_terms, denom_terms)
    if fit.denom == 0.0:
        raise DegenerateDenominatorError("sign-instrument denominator is zero")
    return CauchyFit(float(fit.beta), float(fit.gamma), float(fit.denom), fit.n_used)


def cauchy_estimate(sample: RegressionSample) -> CauchyFit:
    """Full-sample sign-instrument slope estimate.

    beta = sum(sign(x_{t-1}) y_t) / sum(|x_{t-1}|), and gamma is the same
    numerator divided by sqrt(T).
    """
    return _checked_fit(*_sign_terms(sample.y, sample.x1(), None, None))


@dataclass(frozen=True)
class GroupStatistics:
    """Per-group normalized numerators over q consecutive blocks (on the
    last axis of ``gammas``; leading axes index the samples of a batch)."""

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
        scale = np.sqrt(q / terms.shape[-1])
        gammas = scale * blocks.sum(axis=-1)
        return cls(q=q, gammas=gammas, block_size=blocks.shape[-1], dropped=dropped)


def partition_consecutive(values: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Split a series (the last axis) into q consecutive equal blocks,
    dropping the tail.

    Returns the (..., q, block) array and the number of trailing
    observations excluded.  Block size is floor(len/q).
    """
    n = values.shape[-1]
    if q < 2:
        raise PartitionError(f"need at least 2 groups, got q={q}")
    block = n // q
    if block < 1:
        raise PartitionError(f"cannot split {n} observations into q={q} groups")
    dropped = n - q * block
    return values[..., : q * block].reshape(values.shape[:-1] + (q, block)), dropped


def group_gammas(sample: RegressionSample, q: int) -> GroupStatistics:
    """Normalized sign-instrument numerator within each of q blocks.

    Group j sums sign(x_{t-1}) y_t over its block of floor(T/q) consecutive
    observations and scales by sqrt(q/T) with T the full sample size.
    Trailing observations beyond q * floor(T/q) are excluded.
    """
    return GroupStatistics.from_terms(_sign_terms(sample.y, sample.x1(), None, None)[0], q)


def _ols(y: np.ndarray, X: np.ndarray, intercept: bool):
    """Least squares of y (..., T) on X (..., T, K), per leading index.

    Returns the slopes (..., K), the residuals (..., T) and whether each
    design is singular.  The slopes and residuals of a singular design mean
    nothing; they are computed only so the other samples of a batch are
    unaffected.
    """
    if intercept:
        y = y - y.mean(axis=-1, keepdims=True)
        X = X - X.mean(axis=-2, keepdims=True)
    Xt = np.swapaxes(X, -1, -2)
    xtx = Xt @ X
    xty = Xt @ y[..., None]
    k = X.shape[-1]
    if k == 1:
        # one predictor: the rank test (an SVD) decides as xtx == 0 does, and
        # LAPACK's solve of the 1 x 1 system is the division
        singular = xtx[..., 0, 0] == 0.0
        beta = xty / np.where(singular, np.inf, xtx[..., 0, 0])[..., None, None]
    else:
        singular = np.asarray(np.linalg.matrix_rank(xtx) < k)
        beta = np.linalg.solve(np.where(singular[..., None, None], np.eye(k), xtx), xty)
    residuals = y - (X @ beta)[..., 0]
    return beta[..., 0], residuals, singular


def ols_fit(
    sample: RegressionSample, intercept: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes and residuals.

    With ``intercept=True`` both sides are demeaned with full-sample means
    before the slope fit, and the returned residuals are those of the
    demeaned regression.  Residuals always have length T.
    """
    beta, residuals, singular = _ols(sample.y, sample.x_matrix(), intercept)
    if singular:
        raise SingularDesignError("design matrix is rank deficient")
    return beta, residuals


def _mean_square(residuals: np.ndarray) -> np.ndarray:
    return np.mean(residuals * residuals, axis=-1)


def omega_hat_sq(residuals) -> float:
    """Mean squared residual, the variance estimate used by hybrid tests."""
    return float(_mean_square(_as_float_array(residuals, "residuals")))


def check_parity(parity: Parity) -> None:
    if parity not in PARITIES:
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def _sign_terms(y, x_lag, x_level, parity: Optional[Parity]) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator terms on the last axis: sign(x_{t-1}) y_t
    and |x_{t-1}| for ``parity=None``, else the differenced pairs."""
    if parity is None:
        return _sign(x_lag) * y, np.abs(x_lag)
    if x_level is None:
        raise DomainError("differenced estimators require x_level on the sample")
    check_parity(parity)
    n = y.shape[-1]
    # 0-based pair starts i: 0, 2, 4, ... (even) or 1, 3, 5, ... (odd), i < n - 1
    start = 0 if parity == "even" else 1
    if len(range(start, n - 1, 2)) < 2:
        raise DomainError("need at least 2 usable differenced terms")
    first, second = slice(start, n - 1, 2), slice(start + 1, n, 2)
    inst = _sign(x_level[..., first])
    return (
        inst * (y[..., second] - y[..., first]),
        inst * (x_level[..., second] - x_level[..., first]),
    )


def diff_terms(sample: RegressionSample, parity: Parity) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair numerator and denominator terms of the differenced estimator.

    Even parity pairs the responses (y_{2t-1}, y_{2t}) with instrument
    sign(x_{2t-2}); odd parity pairs (y_{2t}, y_{2t+1}) with instrument
    sign(x_{2t-1}).  Summation starts at the smallest t for which every
    index exists, so the two parities use disjoint response differences.
    """
    check_parity(parity)
    return _sign_terms(sample.y, sample.x_lag, sample.x_level, parity)


def diff_cauchy(sample: RegressionSample, parity: Parity) -> CauchyFit:
    """First-differenced sign-instrument estimate on one parity subsample.

    Differencing removes any intercept from the response; alternating pairs
    keep the instrument one full period ahead of the error difference.
    ``gamma`` is the numerator over sqrt(n_used), where n_used counts the
    differenced pairs (about T/2).
    """
    return _checked_fit(*diff_terms(sample, parity))


def _recursive_demean(lev: np.ndarray) -> np.ndarray:
    running_mean = np.cumsum(lev, axis=-1) / np.arange(1, lev.shape[-1] + 1)
    return lev - running_mean


def recursive_demean(x_level) -> np.ndarray:
    """Subtract from each level the running mean of all levels up to it,
    along the last axis.

    Entry t of the output uses only entries 0..t of the input, preserving
    adaptedness; the first entry is always zero.
    """
    return _recursive_demean(_as_float_array(x_level, "x_level"))
