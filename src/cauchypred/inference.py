"""Hypothesis tests for predictive regressions.

Two families are provided, both built on the sign-instrument numerator:

* group t-statistic tests: split the normalized numerator into q consecutive
  blocks and compare the t-statistic of the block values to a t(q-1)
  reference, which keeps size under heterogeneous and persistent volatility;
* hybrid tests: studentize the full-sample numerator by the OLS-residual
  standard deviation, giving a standard normal reference and consistency
  against persistent predictors.

The first-differenced variants handle an unknown intercept; Bonferroni and
Wald combinations handle several predictors jointly.  Every test returns a
:class:`TestOutcome` whose decision satisfies reject iff p_value <= alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dists
from .errors import (
    DegenerateGroupsError,
    DegenerateVarianceError,
    DomainError,
    SignDegeneracyError,
)
from .estimators import (
    GroupStatistics,
    RegressionSample,
    cauchy_estimate,
    diff_cauchy,
    diff_terms,
    ols_fit,
    omega_hat_sq,
    partition_consecutive,
    sign_conv,
)

SIDES = ("two", "right", "left")

# Bakirov & Szekely (2006), as used by Ibragimov & Mueller (2010, JBES): the
# two-sided t-test on q >= 2 independent, symmetric, possibly heterogeneous
# block values keeps its size for alpha up to this level.
ALPHA_VALIDITY_BOUND = 0.08326


@dataclass(frozen=True)
class ReferenceDistribution:
    family: str  # "student_t" | "std_normal" | "chi_square"
    df: Optional[int] = None

    def cdf(self, x: float) -> float:
        """CDF of the symmetric families; chi-square p-values use its survival function."""
        if self.family == "student_t":
            return dists.student_t(x, self.df, "cdf")
        if self.family == "std_normal":
            return dists.std_normal(x, "cdf")
        raise DomainError(f"no cdf for reference distribution {self.family!r}")


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    ref_dist: ReferenceDistribution
    p_value: float
    sided: str
    alpha: float
    reject: bool
    warning: Optional[str] = None


@dataclass(frozen=True)
class JointTestOutcome:
    per_predictor: tuple[TestOutcome, ...]
    method: str  # "bonferroni" | "wald"
    joint_reject: bool
    alpha: float
    wald_stat: Optional[float] = None


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")


def _p_value(statistic: float, ref: ReferenceDistribution, sided: str) -> float:
    if sided not in SIDES:
        raise DomainError(f"sided must be one of {SIDES}, got {sided!r}")
    if ref.family == "chi_square":
        if sided != "right":
            raise DomainError("chi-square tests are right-tailed only")
        return dists.chi_square_sf(max(statistic, 0.0), ref.df)
    # both references are symmetric: tails as cdf(-|x|) keep their accuracy
    # where 1 - cdf would round to 0
    if sided == "right":
        return ref.cdf(-statistic)
    if sided == "left":
        return ref.cdf(statistic)
    return 2.0 * ref.cdf(-abs(statistic))


def _outcome(
    statistic: float,
    ref: ReferenceDistribution,
    sided: str,
    alpha: float,
    warning: Optional[str] = None,
) -> TestOutcome:
    _check_alpha(alpha)
    p = _p_value(statistic, ref, sided)
    return TestOutcome(
        statistic=float(statistic),
        ref_dist=ref,
        p_value=float(p),
        sided=sided,
        alpha=float(alpha),
        reject=bool(p <= alpha),
        warning=warning,
    )


def t_statistic(values: np.ndarray) -> float:
    """sqrt(q) * mean / sd with the q-1 divisor; errors on zero spread."""
    v = np.asarray(values, dtype=float)
    q = v.shape[0]
    sd = v.std(ddof=1)
    if sd == 0.0:
        raise DegenerateGroupsError("all group statistics are identical")
    return float(np.sqrt(q) * v.mean() / sd)


def _group_t_outcome(values: np.ndarray, sided: str, alpha: float) -> TestOutcome:
    """t-statistic of q block values against t(q-1).

    ``ALPHA_VALIDITY_BOUND`` is the two-sided bound.  Under the null the
    statistic is symmetric, so a one-sided level-alpha test rejects with
    half the probability of the two-sided level-2 alpha test: it keeps its
    size only when 2 alpha <= ALPHA_VALIDITY_BOUND, so the one-sided bound
    is half the two-sided one.  Levels above the bound for ``sided`` are
    flagged on the outcome rather than rejected outright.
    """
    stat = t_statistic(values)
    bound = ALPHA_VALIDITY_BOUND if sided == "two" else ALPHA_VALIDITY_BOUND / 2
    warning = None
    if alpha > bound:
        warning = (
            f"{sided}-sided group t-test validity is only guaranteed for "
            f"alpha <= {bound:g}; got alpha={alpha}"
        )
    ref = ReferenceDistribution("student_t", df=len(values) - 1)
    return _outcome(stat, ref, sided, alpha, warning)


def t_q_test(groups: GroupStatistics, alpha: float, sided: str = "two") -> TestOutcome:
    """Group t-test on the per-block normalized numerators.

    The statistic is sqrt(q) * mean / sd of the q block values, referred to
    a t distribution with q-1 degrees of freedom.
    """
    return _group_t_outcome(groups.gammas, sided, alpha)


def hybrid_test(sample: RegressionSample, alpha: float, sided: str = "two") -> TestOutcome:
    """Sign-instrument numerator studentized by the no-intercept OLS
    residual standard deviation."""
    fit = cauchy_estimate(sample)
    _, residuals = ols_fit(sample, intercept=False)
    w2 = omega_hat_sq(residuals)
    if w2 == 0.0:
        raise DegenerateVarianceError("residual variance is zero (perfect fit)")
    stat = fit.gamma / np.sqrt(w2)
    return _outcome(stat, ReferenceDistribution("std_normal"), sided, alpha)


def hybrid_test_intercept(
    sample: RegressionSample,
    parity: str,
    alpha: float,
    sided: str = "two",
) -> TestOutcome:
    """Intercept-robust hybrid test via the first-differenced estimator.

    The statistic is the t-ratio of the differenced sign-instrument slope:
    sign(D) * gamma / (sqrt(2) * omega_hat), where D is the instrument
    denominator, gamma the normalized numerator of the chosen parity
    subsample, and omega_hat the full-sample demeaned-OLS residual standard
    deviation.  The sqrt(2) accounts for the doubled variance of differenced
    errors; the sign(D) factor aligns the statistic with the slope estimate
    so one-sided tests point in the direction of the alternative.
    """
    fit = diff_cauchy(sample, parity)
    _, residuals = ols_fit(sample, intercept=True)
    w2 = omega_hat_sq(residuals)
    if w2 == 0.0:
        raise DegenerateVarianceError("residual variance is zero (perfect fit)")
    stat = sign_conv(fit.denom) * fit.gamma / np.sqrt(2.0 * w2)
    return _outcome(stat, ReferenceDistribution("std_normal"), sided, alpha)


def grouped_hybrid_test(
    sample: RegressionSample,
    parity: str,
    q: int,
    alpha: float,
    sided: str = "two",
) -> TestOutcome:
    """Group t-test over blocks of the differenced numerator terms.

    The parity subsample's numerator terms are split into q consecutive
    blocks and the block sums feed the same t-statistic as
    :func:`t_q_test`.  Dividing every block by a common positive variance
    estimate would leave the statistic unchanged, so none is estimated.
    """
    numer_terms, _ = diff_terms(sample, parity)
    blocks, _ = partition_consecutive(numer_terms, q)
    scale = np.sqrt(q / numer_terms.shape[0])
    return _group_t_outcome(scale * blocks.sum(axis=1), sided, alpha)


def bonferroni_joint(
    samples: Sequence[RegressionSample],
    alpha: float,
    sided: str = "two",
) -> JointTestOutcome:
    """Joint test of K univariate slopes by the Bonferroni rule.

    Runs the hybrid test on each sample (all must share the same response)
    and rejects the joint null when the smallest p-value is <= alpha / K.
    """
    if len(samples) < 1:
        raise DomainError("need at least one sample")
    y0 = samples[0].y
    for s in samples[1:]:
        if not np.array_equal(s.y, y0):
            raise DomainError("all samples must share the same response series")
    _check_alpha(alpha)
    outcomes = tuple(hybrid_test(s, alpha, sided) for s in samples)
    k = len(outcomes)
    joint = min(o.p_value for o in outcomes) <= alpha / k
    return JointTestOutcome(
        per_predictor=outcomes,
        method="bonferroni",
        joint_reject=bool(joint),
        alpha=float(alpha),
    )


def _diagnose_sign_collinearity(z: np.ndarray) -> str:
    k = z.shape[1]
    for i in range(k):
        for j in range(i + 1, k):
            if np.array_equal(z[:, i], z[:, j]):
                return f"predictors {i} and {j} have identical sign patterns"
            if np.array_equal(z[:, i], -z[:, j]):
                return f"predictors {i} and {j} have opposite sign patterns"
    return "sign instrument cross-product matrix is singular"


def wald_joint(sample: RegressionSample, alpha: float) -> JointTestOutcome:
    """Joint chi-square test of all K slopes via the sign-instrument moments.

    W = b' (omega^2 Z'Z)^{-1} b with b the vector of instrument-weighted
    response sums, Z the sign matrix of the lagged predictors, and omega^2
    the K-variate no-intercept OLS residual variance.  At K = 1 the
    statistic equals the squared hybrid statistic.
    """
    _check_alpha(alpha)
    X = sample.x_matrix()
    k = X.shape[1]
    z = sign_conv(X).reshape(sample.n_obs, k)
    S = z.T @ z
    if np.linalg.matrix_rank(S) < k:
        raise SignDegeneracyError(_diagnose_sign_collinearity(z))
    _, residuals = ols_fit(sample, intercept=False)
    w2 = omega_hat_sq(residuals)
    if w2 == 0.0:
        raise DegenerateVarianceError("residual variance is zero (perfect fit)")
    b = z.T @ sample.y
    stat = float(b @ np.linalg.solve(S, b) / w2)
    marginal = _outcome(stat, ReferenceDistribution("chi_square", df=k), "right", alpha)
    return JointTestOutcome(
        per_predictor=(marginal,),
        method="wald",
        joint_reject=marginal.reject,
        alpha=float(alpha),
        wald_stat=stat,
    )
