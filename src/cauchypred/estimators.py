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
engine's unit of work).  Data is validated once, where it enters: a sample
keeps the batch that checked it, whose cached intermediates all calls on it
share.  The estimators are pure and safe for unrestricted concurrent use.

Every array a kernel makes comes from a :class:`Workspace`, which belongs
to one thread.  The Monte Carlo engine's fan-out hands each share of blocks
one, which serves block after block, so memory is neither returned to the
system nor faulted in again; ``d2_study`` makes one per call and keeps none.
A public function, or a batch given none (a sample's), takes a fresh
workspace per computation: no two calls or threads share scratch or result
memory.
"""

from __future__ import annotations

import math
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


# Largest max|v| * sqrt(n) accepted for a series of n observations: it keeps
# every sum of squares or cross products the tests form below 1e300, so none
# overflows to inf and turns a statistic into 0 or nan.
MAGNITUDE_BOUND = 1e150


class Workspace:
    """Reusable buffers that the arrays of a Monte Carlo block are written into.

    Each buffer grows to the largest request it has served and never
    shrinks; an array of any shape and dtype views its bytes.  Two kinds of
    array are handed out, uninitialised:

    * :meth:`array` backs an array that outlives the function taking it (a
      batch's data, its cached sign terms) with the buffer of that name; it
      stays valid until the name is requested again, by the next block.
    * :meth:`scratch` backs an intermediate with the next free scratch
      buffer; it stays valid until the frame it was taken in exits, and the
      next frame reuses the buffer.  So the simulation's draws and the
      tests' centred data share memory, and a workspace holds about as many
      arrays as a block has alive at once.

    ``with workspace:`` opens a frame; frames nest.  A workspace is not
    thread-safe: each thread owns its own.
    """

    __slots__ = ("_buffers", "_depth", "_frames")

    def __init__(self) -> None:
        self._buffers: dict = {}
        self._depth = 0
        self._frames: list = []  # the depth at which each open frame started

    def array(self, name, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.nbytes < nbytes:
            self._buffers[name] = buffer = np.empty(nbytes, np.uint8)
        return np.ndarray(shape, dtype, buffer)

    def scratch(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        self._depth += 1
        return self.array(self._depth, shape, dtype)  # scratch buffers are named by depth

    def __enter__(self) -> "Workspace":
        self._frames.append(self._depth)
        return self

    def __exit__(self, *exc) -> None:
        self._depth = self._frames.pop()


def _as_float_array(x, name: str) -> np.ndarray:
    """``x`` as a float array, nonempty, finite and within
    :data:`MAGNITUDE_BOUND` for n = its length along the last axis."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError(f"{name} must be nonempty")
    n = arr.shape[-1] if arr.ndim else 1
    limit = MAGNITUDE_BOUND / math.sqrt(n)
    # max and min catch both faults: nan fails either comparison, inf exceeds the limit
    if not (-limit <= arr.min() and arr.max() <= limit):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} contains non-finite entries")
        raise DomainError(
            f"{name} is too large: max |value| * sqrt(n) exceeds {MAGNITUDE_BOUND:g} (n = {n})"
        )
    return arr


@dataclass(frozen=True, eq=False)
class RegressionSample:
    """Aligned response and lagged-predictor series.

    ``y`` holds y_1..y_T and row t of ``x_lag`` holds the predictor values
    dated t-1, so each response is paired with the previous period's
    predictor, or a T x K ``x_lag`` K predictors.  The optional ``x_level``
    holds the T+1 levels x_0..x_T (the first T equal ``x_lag``; univariate
    only) that the first-differenced estimators need.  The sample keeps
    read-only float copies of its inputs and :attr:`batch`, the
    :class:`SampleBatch` that validated them, one row per predictor.
    Samples compare by identity."""

    y: np.ndarray
    x_lag: np.ndarray
    x_level: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        y, x, lev = (None if a is None else np.array(a, dtype=float) for a in (self.y, self.x_lag, self.x_level))
        if y.ndim != 1:
            raise DomainError("y must be one-dimensional")
        if x.ndim not in (1, 2):
            raise DomainError("x_lag must be a vector or a T x K matrix")
        if x.shape[0] != y.shape[0]:
            raise DomainError(f"y and x_lag lengths differ: {y.shape[0]} vs {x.shape[0]}")
        if lev is not None and (lev.ndim != 1 or x.ndim != 1):
            raise DomainError("x_level is only supported for univariate samples")
        # the batch owns the data rules: one contiguous row per predictor, as a univariate sample has
        rows = np.ascontiguousarray(x.T) if x.ndim == 2 else x[None]
        for a in (y, x, rows) if lev is None else (y, x, rows, lev):
            a.flags.writeable = False  # private copies: the caller's arrays may change, the sample's cannot
        batch = SampleBatch(np.broadcast_to(y, rows.shape), rows, None if lev is None else lev[None])
        for name, value in zip(("y", "x_lag", "x_level", "_batch"), (y, x, lev, batch)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # unpickled arrays are writable: rebuild the copies and the batch
        return RegressionSample, (self.y, self.x_lag, self.x_level)

    @property
    def batch(self) -> "SampleBatch":
        return self._batch

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

    ``y`` is (R, T).  The predictor is ``x_lag``, (R, T), or the levels
    ``x_level``, (R, T + 1), whose first T columns are then ``x_lag``, a
    view; given both, as :class:`RegressionSample` gives its copies,
    ``x_lag`` must equal those columns.  The data is validated once, on
    construction, and the intermediates a test needs (:meth:`terms`,
    :meth:`residual_variance`) are cached, so every method shares them.
    Given a ``workspace`` (one thread's), it writes them there and is valid
    until that serves the next block.  Given none (a sample's batch), each
    cache fill takes a fresh one, so threads share it without a lock.
    """

    __slots__ = ("y", "x_lag", "x_level", "_cache", "_workspace")

    def __init__(self, y, x_lag=None, x_level=None, workspace: Optional[Workspace] = None) -> None:
        y = _as_float_array(y, "y")
        if y.ndim != 2 or y.shape[1] < 2:
            raise DomainError(f"y must be an (R, T) array with T >= 2 observations, got shape {y.shape}")
        if x_level is not None:
            x_level = _as_float_array(x_level, "x_level")
            if x_level.shape != (y.shape[0], y.shape[1] + 1):
                raise DomainError(f"x_level must be an (R, T + 1) array, got {x_level.shape}")
            x = x_level[:, :-1]
            if x_lag is not None and not np.array_equal(x, x_lag):
                raise DomainError("x_lag must equal the first T columns of x_level")
        elif x_lag is None:
            raise DomainError("x_lag is required unless x_level is given")
        else:
            x = _as_float_array(x_lag, "x_lag")
            if x.shape != y.shape:
                raise DomainError("y and x_lag must be (R, T) arrays of one shape")
        self.y, self.x_lag, self.x_level = y, x, x_level
        self._cache: dict = {}
        self._workspace = workspace

    @classmethod
    def of(cls, sample: RegressionSample) -> "SampleBatch":
        """A univariate sample as a batch of one: the batch it was validated by."""
        sample.x1()  # raises unless univariate
        return sample.batch

    def terms(self, parity: Optional[Parity] = None) -> tuple[np.ndarray, np.ndarray]:
        """Numerator and denominator terms of the sign-instrument estimator
        on the last axis, workspace arrays of their own per parity:
        sign(x_{t-1}) y_t and |x_{t-1}| for ``parity=None``, else the
        differenced pairs of that parity (see :func:`diff_terms`)."""
        key = ("terms", parity)
        if key in self._cache:
            return self._cache[key]
        ws, y = self._workspace or Workspace(), self.y
        numer, denom = f"numer.{parity}", f"denom.{parity}"
        if parity is None:
            terms = _sign(self.x_lag, ws.array(numer, y.shape))
            terms *= y
            self._cache[key] = terms, np.abs(self.x_lag, out=ws.array(denom, y.shape))
            return self._cache[key]
        pairs = term_count(y.shape[-1], parity)
        if self.x_level is None:
            raise DomainError("differenced estimators require x_level on the sample")
        start = PARITIES.index(parity)
        first, second = slice(start, start + 2 * pairs, 2), slice(start + 1, start + 2 * pairs, 2)
        shape = y.shape[:-1] + (pairs,)
        dy = np.subtract(y[..., second], y[..., first], out=ws.array(numer, shape))
        dx = np.subtract(self.x_level[..., second], self.x_level[..., first], out=ws.array(denom, shape))
        with ws:
            inst = _sign(self.x_level[..., first], ws.scratch(shape))
            dy *= inst
            dx *= inst
        self._cache[key] = dy, dx
        return self._cache[key]

    def residual_variance(self, intercept: bool) -> tuple[np.ndarray, np.ndarray]:
        """omega_hat^2 of each row's OLS fit (see :func:`ols_fit`), and
        whether the row's design is singular."""
        key = ("omega", intercept)
        if key not in self._cache:
            with self._workspace or Workspace() as ws:
                _, residuals, singular = _ols(self.y, self.x_lag[..., None], intercept, ws)
                # the residuals are scratch: square them in place
                self._cache[key] = (np.mean(np.square(residuals, out=residuals), axis=-1), singular)
        return self._cache[key]


def _sign(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sign(x) as +1.0 / -1.0 with sign(0) = +1, written into the float ``out``."""
    np.greater_equal(x, 0.0, out=out)
    out *= 2.0
    out -= 1.0
    return out


def sign_conv(x):
    """Sign with the convention sign(0) = +1.

    Works elementwise on arrays; scalars come back as floats in {+1, -1}.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sign_conv requires finite input")
    out = _sign(arr, np.empty(arr.shape))
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
    """The fit of the terms of a batch of one; a zero denominator is an error."""
    fit = _sign_fit(numer_terms[0], denom_terms[0])
    if fit.denom == 0.0:
        raise DegenerateDenominatorError("sign-instrument denominator is zero")
    return CauchyFit(float(fit.beta), float(fit.gamma), float(fit.denom), fit.n_used)


def cauchy_estimate(sample: RegressionSample) -> CauchyFit:
    """Full-sample sign-instrument slope estimate.

    beta = sum(sign(x_{t-1}) y_t) / sum(|x_{t-1}|), and gamma is the same
    numerator divided by sqrt(T).
    """
    return _checked_fit(*SampleBatch.of(sample).terms(None))


@dataclass(frozen=True, eq=False)
class GroupStatistics:
    """Per-group normalized numerators over q >= 2 consecutive blocks (on the
    last axis of ``gammas``; leading axes index the samples of a batch).
    Compared by identity."""

    q: int
    gammas: np.ndarray
    block_size: int
    dropped: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise PartitionError(f"need q >= 2 groups, got q={self.q}")
        if self.block_size < 1:
            raise PartitionError("group blocks must contain at least one observation")
        if not 0 <= self.dropped < self.q:
            raise PartitionError(f"invalid trailing remainder {self.dropped}")
        if np.shape(self.gammas)[-1:] != (self.q,):
            raise PartitionError(f"gammas must hold q={self.q} values on its last axis, got {np.shape(self.gammas)}")

    @classmethod
    def from_terms(cls, terms: np.ndarray, q: int) -> "GroupStatistics":
        """Sums of q consecutive blocks of per-observation numerator terms,
        scaled by sqrt(q / len(terms)); the tail beyond q blocks is dropped."""
        blocks, dropped = partition_consecutive(terms, q)
        scale = np.sqrt(q / terms.shape[-1])
        gammas = scale * blocks.sum(axis=-1)
        return cls(q=q, gammas=gammas, block_size=blocks.shape[-1], dropped=dropped)


def group_block_size(n_terms: int, q: int) -> int:
    """floor(n_terms / q), the block size of q consecutive groups; q must
    be at least 2 and at most n_terms."""
    if not 2 <= q <= n_terms:
        raise PartitionError(f"cannot split {n_terms} terms into q={q} groups: need 2 <= q <= {n_terms}")
    return n_terms // q


def partition_consecutive(values: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Split a series (the last axis) into q consecutive equal blocks,
    dropping the tail.

    Returns the (..., q, block) array and the number of trailing
    observations excluded.  Block size is floor(len/q).
    """
    n = values.shape[-1]
    block = group_block_size(n, q)
    dropped = n - q * block
    return values[..., : q * block].reshape(values.shape[:-1] + (q, block)), dropped


def group_gammas(sample: RegressionSample, q: int) -> GroupStatistics:
    """Normalized sign-instrument numerator within each of q blocks.

    Group j sums sign(x_{t-1}) y_t over its block of floor(T/q) consecutive
    observations and scales by sqrt(q/T) with T the full sample size.
    Trailing observations beyond q * floor(T/q) are excluded.
    """
    numer, _ = SampleBatch.of(sample).terms(None)
    return GroupStatistics.from_terms(numer[0], q)


def _ols(y: np.ndarray, X: np.ndarray, intercept: bool, ws: Workspace):
    """Least squares of y (..., T) on X (..., T, K), per leading index.

    Returns the slopes (..., K), the residuals (..., T) and whether each
    design is singular.  The slopes and residuals of a singular design mean
    nothing; they are computed only so the other samples of a batch are
    unaffected.  The centred data and the residuals are ``ws`` scratch,
    taken in the caller's frame.
    """
    if intercept:
        y = np.subtract(y, y.mean(axis=-1, keepdims=True), out=ws.scratch(y.shape))
        X = np.subtract(X, X.mean(axis=-2, keepdims=True), out=ws.scratch(X.shape))
    Xt = np.swapaxes(X, -1, -2)
    xtx = Xt @ X
    xty = Xt @ y[..., None]
    k = X.shape[-1]
    fitted = ws.scratch(y.shape)
    if k == 1:
        # one predictor: the rank test (an SVD) decides as xtx == 0 does,
        # LAPACK's solve of the 1 x 1 system is the division, and the
        # fitted values, a matmul over an inner dimension of 1, are the
        # product summed onto +0 as matmul sums it (a -0 product gives +0)
        singular = xtx[..., 0, 0] == 0.0
        beta = xty / np.where(singular, np.inf, xtx[..., 0, 0])[..., None, None]
        np.multiply(X[..., 0], beta[..., 0, 0][..., None], out=fitted)
        fitted += 0.0
    else:
        singular = np.asarray(np.linalg.matrix_rank(xtx) < k)
        beta = np.linalg.solve(np.where(singular[..., None, None], np.eye(k), xtx), xty)
        np.matmul(X, beta, out=fitted[..., None])
    return beta[..., 0], np.subtract(y, fitted, out=fitted), singular


def ols_fit(
    sample: RegressionSample, intercept: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes and residuals.

    With ``intercept=True`` both sides are demeaned with full-sample means
    before the slope fit, and the returned residuals are those of the
    demeaned regression.  Residuals always have length T.
    """
    beta, residuals, singular = _ols(sample.y, sample.x_matrix(), intercept, Workspace())
    if singular:
        raise SingularDesignError("design matrix is rank deficient")
    return beta, residuals


def _mean_square(residuals: np.ndarray) -> np.ndarray:
    return np.mean(residuals * residuals, axis=-1)


def omega_hat_sq(residuals) -> float:
    """Mean squared residual, the variance estimate used by hybrid tests."""
    return float(_mean_square(_as_float_array(residuals, "residuals")))


def term_count(n_obs: int, parity: Optional[Parity]) -> int:
    """Sign-instrument terms of a sample of n_obs observations: n_obs in the
    levels form (``parity=None``), else its differenced pairs of that parity (at least 2)."""
    if parity is None:
        return n_obs
    if parity not in PARITIES:
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    # 0-based pair starts i: 0, 2, 4, ... (even) or 1, 3, 5, ... (odd), i < n_obs - 1
    pairs = len(range(PARITIES.index(parity), n_obs - 1, 2))
    if pairs < 2:
        raise DomainError("need at least 2 usable differenced terms")
    return pairs


def diff_terms(sample: RegressionSample, parity: Parity) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair numerator and denominator terms of the differenced estimator.

    Even parity pairs the responses (y_{2t-1}, y_{2t}) with instrument
    sign(x_{2t-2}); odd parity pairs (y_{2t}, y_{2t+1}) with instrument
    sign(x_{2t-1}).  Summation starts at the smallest t for which every
    index exists, so the two parities use disjoint response differences.
    """
    numer, denom = SampleBatch.of(sample).terms(parity)
    return numer[0].copy(), denom[0].copy()  # writing into them leaves the sample's cached terms as they were


def diff_cauchy(sample: RegressionSample, parity: Parity) -> CauchyFit:
    """First-differenced sign-instrument estimate on one parity subsample.

    Differencing removes any intercept from the response; alternating pairs
    keep the instrument one full period ahead of the error difference.
    ``gamma`` is the numerator over sqrt(n_used), where n_used counts the
    differenced pairs (about T/2).
    """
    return _checked_fit(*SampleBatch.of(sample).terms(parity))


def _recursive_demean(lev: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    running_mean = np.cumsum(lev, axis=-1, out=out)
    running_mean /= np.arange(1, lev.shape[-1] + 1)
    return np.subtract(lev, running_mean, out=running_mean)


def recursive_demean(x_level) -> np.ndarray:
    """Subtract from each level the running mean of all levels up to it,
    along the last axis.

    Entry t of the output uses only entries 0..t of the input, preserving
    adaptedness; the first entry is always zero.
    """
    return _recursive_demean(_as_float_array(x_level, "x_level"))
