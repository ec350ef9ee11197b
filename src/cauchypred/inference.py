"""Hypothesis tests for predictive regressions.

The paper's two tests, both built on the sign-instrument numerator, each
come in two sample forms, a 2 x 2 of test family times sample form:

=================  ===========================  ================================
test family        levels                       differenced (unknown intercept)
=================  ===========================  ================================
group t            :func:`t_q_test`             :func:`grouped_hybrid_test`
hybrid             :func:`hybrid_test`          :func:`hybrid_test_intercept`
=================  ===========================  ================================

* group t-statistic tests split the numerator terms into q consecutive
  blocks and compare the t-statistic of the block values to a t(q-1)
  reference, which keeps size under heterogeneous and persistent volatility;
* hybrid tests studentize the full-sample numerator by the OLS-residual
  standard deviation, giving a standard normal reference and consistency
  against persistent predictors.

The levels form uses the terms sign(x_{t-1}) y_t; the differenced form uses
one parity of first-differenced pairs (:func:`~cauchypred.estimators.diff_terms`),
which removes the intercept.  Each family has one body,
:func:`group_t_outcomes` and :func:`hybrid_outcomes`, shared by its two
forms (``parity=None`` is the levels form).  It runs on a
:class:`~cauchypred.estimators.SampleBatch` and returns
:class:`BatchOutcomes`, arrays over the batch's samples; the four public
tests run it on the sample's own batch, sharing its terms and OLS fits.
The joint tests take one K-predictor sample: Bonferroni runs the hybrid test
on its batch's K rows, Wald tests the K slopes together.  Every test
returns a :class:`TestOutcome`, which rejects iff p_value <= alpha.

A method label names one test family on one sample form, a
:class:`MethodSpec` ``(q, parity)``.  :func:`evaluate_batch` is the only
label -> test dispatcher; :func:`evaluate_method` runs it on a single sample
as a batch of one.

==========================  ==========  ===============================
test family                 levels      differenced, even / odd
==========================  ==========  ===============================
group t over q >= 2 blocks  ``t<q>``    ``t<q>_tau_e`` / ``t<q>_tau_o``
hybrid                      ``tau``     ``tau_e`` / ``tau_o``
==========================  ==========  ===============================

A batch decides by critical value, not by p-value.  Each statistic is
oriented for its side (|stat| two-sided, stat right, -stat left) and
compared with the c at which that side's p-value equals alpha
(:func:`critical_value`, cached per process): at or above
c + m it rejects, at or below c - m it does not, with
m = 1e-9 max(1, |c|), about 1e5 times the tested error of the cdfs.  Only
a statistic strictly inside that band has its p-value computed to decide,
so the decision is the one p_value <= alpha gives.  The p-values
themselves are computed when :attr:`BatchOutcomes.p_value` is first read,
which the Monte Carlo engine never does.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dists
from .dgp import typed_fields
from .errors import (
    DegenerateDenominatorError,
    DegenerateGroupsError,
    DegenerateVarianceError,
    DomainError,
    SchemaError,
    SignDegeneracyError,
    SingularDesignError,
)
from .estimators import (
    PARITIES,
    GroupStatistics,
    Parity,
    RegressionSample,
    SampleBatch,
    _as_float_array,
    _mean_square,
    _sign,
    _sign_fit,
    ols_fit,
)

SIDES = ("two", "right", "left")

# The degenerate-statistic errors a test raises on a sample, in the order
# the tests check them; BatchOutcomes.cause is 1 + the index, 0 if none.
DEGENERACIES = (
    (DegenerateDenominatorError, "sign-instrument denominator is zero"),
    (SingularDesignError, "design matrix is rank deficient"),
    (DegenerateVarianceError, "residual variance is zero (perfect fit)"),
    (DegenerateGroupsError, "all group statistics are identical"),
)
_DENOMINATOR, _SINGULAR, _VARIANCE, _GROUPS = range(1, len(DEGENERACIES) + 1)

# half-width of the band around a critical value c, relative to max(1, |c|),
# inside which a decision falls back to the p-value
_BAND = 1e-9

_METHOD_RE = re.compile(r"^t(?P<q>\d+)$|^(?:t(?P<gq>\d+)_(?=tau_))?tau(?:_(?P<parity>[eo]))?$")
_PARITIES = {parity[0]: parity for parity in PARITIES}


@dataclass(frozen=True)
class ReferenceDistribution:
    family: str  # "student_t" | "std_normal" | "chi_square"
    df: Optional[int] = None

    def cdf(self, x):
        """CDF of the symmetric families, elementwise; chi-square p-values
        use its survival function."""
        if self.family == "student_t":
            return dists.student_t(x, self.df)
        if self.family == "std_normal":
            return dists.std_normal(x)
        raise DomainError(f"no cdf for reference distribution {self.family!r}")

    def two_sided_cv(self, level: float) -> float:
        """The c > 0 with P(|X| > c) = level, for the symmetric families."""
        if self.family == "student_t":
            return dists.student_t_two_sided_cv(level, self.df)
        if self.family == "std_normal":
            return dists.std_normal_two_sided_cv(level)
        raise DomainError(f"no critical value for reference distribution {self.family!r}")


def reference(q: Optional[int]) -> ReferenceDistribution:
    """The reference of the group t-test over q blocks, t(q - 1), or for
    ``q=None`` that of the hybrid test, N(0, 1)."""
    return ReferenceDistribution("std_normal") if q is None else ReferenceDistribution("student_t", df=q - 1)


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
class BatchOutcomes:
    """One test on every sample of a batch, as arrays over the samples.

    On a sample where the test raises a degenerate-statistic error,
    ``cause`` is 1 + that error's index in :data:`DEGENERACIES`, the
    statistic and p-value are nan and the sample does not reject;
    elsewhere ``cause`` is 0.  ``reject`` is decided by critical value
    (module docstring) and equals ``p_value <= alpha``; ``p_value`` is
    computed when first read.
    """

    statistic: np.ndarray
    reject: np.ndarray
    cause: np.ndarray
    ref_dist: ReferenceDistribution
    sided: str
    alpha: float
    warning: Optional[str] = None

    def single(self) -> TestOutcome:
        """The outcome of a batch of one sample, or its degenerate-statistic error."""
        if self.cause.shape != (1,):
            raise DomainError(f"expected a batch of one sample, got {self.cause.shape[0]}")
        return self.outcome(0)

    def outcome(self, i: int) -> TestOutcome:
        """The outcome of sample ``i``, or its degenerate-statistic error."""
        if self.cause[i]:
            error, message = DEGENERACIES[self.cause[i] - 1]
            raise error(message)
        return TestOutcome(
            statistic=float(self.statistic[i]),
            ref_dist=self.ref_dist,
            p_value=float(self.p_value[i]),
            sided=self.sided,
            alpha=float(self.alpha),
            reject=bool(self.reject[i]),
            warning=self.warning,
        )

    @functools.cached_property
    def p_value(self) -> np.ndarray:
        """p-values of the samples whose statistic is defined, nan elsewhere.
        Each depends on its own statistic only, so not on which others are
        defined."""
        defined = self.cause == 0
        p = np.full(self.statistic.shape, np.nan)
        p[defined] = _p_value(self.statistic[defined], self.ref_dist, self.sided)
        return p


@dataclass(frozen=True)
class JointTestOutcome:
    per_predictor: tuple[TestOutcome, ...]
    method: str  # "bonferroni" | "wald"
    joint_reject: bool
    alpha: float
    wald_stat: Optional[float] = None


def check_level(alpha: float, sided: str) -> None:
    """The level and side every test takes: alpha in (0, 1), sided one of
    :data:`SIDES`."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if sided not in SIDES:
        raise DomainError(f"sided must be one of {SIDES}, got {sided!r}")


@functools.lru_cache(maxsize=256)
def critical_value(ref: ReferenceDistribution, alpha: float, sided: str) -> float:
    """The c at which the p-value of a statistic oriented for ``sided``
    (|stat| two-sided, stat right, -stat left) equals alpha; it rejects
    from c up.  Cached per process.

    One side at level alpha takes the two-sided value at level 2 alpha, and
    by symmetry -c at 1 - alpha above 1/2, so c = 0 at alpha = 1/2.
    """
    check_level(alpha, sided)
    if sided == "two":
        return ref.two_sided_cv(alpha)
    if alpha == 0.5:
        return 0.0
    c = ref.two_sided_cv(2.0 * min(alpha, 1.0 - alpha))
    return c if alpha < 0.5 else -c


def default_d2_threshold() -> float:
    """Two-sided t critical value at the 5% level for a two-group split."""
    return dists.student_t_two_sided_cv(0.05, 1)


def _p_value(statistic, ref: ReferenceDistribution, sided: str):
    """p-value of a statistic, elementwise over an array of them."""
    # both references are symmetric: tails as cdf(-|x|) keep their accuracy
    # where 1 - cdf would round to 0
    if sided == "right":
        return ref.cdf(-statistic)
    if sided == "left":
        return ref.cdf(statistic)
    return 2.0 * ref.cdf(-np.abs(statistic))


def _outcomes(
    statistic: np.ndarray,
    ref: ReferenceDistribution,
    sided: str,
    alpha: float,
    cause: np.ndarray,
    warning: Optional[str] = None,
) -> BatchOutcomes:
    """Decisions of the samples whose statistic is defined (``cause`` 0);
    the others get a nan statistic and do not reject.  A statistic within
    the band around the critical value decides by its p-value (module
    docstring)."""
    check_level(alpha, sided)
    statistic = np.where(cause == 0, statistic, np.nan)
    c = critical_value(ref, alpha, sided)
    margin = _BAND * max(1.0, abs(c))
    oriented = np.abs(statistic) if sided == "two" else (statistic if sided == "right" else -statistic)
    reject = oriented >= c + margin  # nan: False
    band = (oriented > c - margin) & ~reject
    if band.any():
        reject[band] = _p_value(statistic[band], ref, sided) <= alpha
    return BatchOutcomes(
        statistic=statistic,
        reject=reject,
        cause=cause,
        ref_dist=ref,
        sided=sided,
        alpha=alpha,
        warning=warning,
    )


def _t_statistics(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(q) * mean / sd (q-1 divisor) over the last axis, and where sd is 0.

    The mean and sd are numpy's ``mean`` and ``std(ddof=1)``, spelled out.
    """
    q = values.shape[-1]
    mean = values.sum(axis=-1, keepdims=True) / q
    dev = values - mean
    sd = np.sqrt((dev * dev).sum(axis=-1) / (q - 1))
    flat = sd == 0.0
    return np.sqrt(q) * mean[..., 0] / np.where(flat, 1.0, sd), flat


def t_statistic(values: np.ndarray) -> float:
    """sqrt(q) * mean / sd with the q-1 divisor; errors on zero spread."""
    stat, flat = _t_statistics(np.asarray(values, dtype=float))
    if flat:
        raise DegenerateGroupsError(DEGENERACIES[_GROUPS - 1][1])
    return float(stat)


def group_t_validity_bound(q: int, sided: str) -> float:
    """The largest alpha at which the group t-test over q >= 2 independent,
    symmetric, possibly heterogeneous block values keeps its size.

    Two-sided it is 0.1 for q <= 14 and 0.08326 above (Ibragimov & Mueller
    2010, JBES, Theorem 1, after Bakirov & Szekely 2006).  Under the null
    the statistic is symmetric, so a one-sided level-alpha test rejects
    with half the probability of the two-sided level-2 alpha test: the
    one-sided bound is half the two-sided one.
    """
    two_sided = 0.1 if q <= 14 else 0.08326
    return two_sided if sided == "two" else two_sided / 2


def _group_t_outcomes(values: np.ndarray, alpha: float, sided: str) -> BatchOutcomes:
    """t-statistic of the q block values (last axis) against t(q-1).

    Levels above :func:`group_t_validity_bound` for q and ``sided`` are
    flagged on the outcome rather than rejected outright.
    """
    stat, flat = _t_statistics(values)
    q = values.shape[-1]
    bound = group_t_validity_bound(q, sided)
    warning = None
    if alpha > bound:
        warning = (
            f"{sided}-sided group t-test validity over q={q} groups is only "
            f"guaranteed for alpha <= {bound:g}; got alpha={alpha}"
        )
    cause = np.where(flat, _GROUPS, 0).astype(np.int8)
    return _outcomes(stat, reference(q), sided, alpha, cause, warning)


def group_t_outcomes(
    batch: SampleBatch, q: int, parity: Optional[Parity], alpha: float, sided: str = "two"
) -> BatchOutcomes:
    """Group t-test over q blocks of each sample's numerator terms: the
    levels terms for ``parity=None``, else the differenced pairs."""
    numer_terms, _ = batch.terms(parity)
    return _group_t_outcomes(GroupStatistics.from_terms(numer_terms, q).gammas, alpha, sided)


def hybrid_outcomes(
    batch: SampleBatch, parity: Optional[Parity], alpha: float, sided: str = "two"
) -> BatchOutcomes:
    """sign(D) * gamma / sqrt(c * omega_hat^2) against N(0, 1), per sample.

    Levels (``parity=None``): c = 1 and omega_hat^2 from the no-intercept
    OLS residuals; D > 0 always.  Differenced: c = 2 for the doubled
    variance of differenced errors, omega_hat^2 from the demeaned OLS
    residuals, and sign(D) aligns the statistic with the slope estimate so
    one-sided tests point in the direction of the alternative.
    """
    differenced = parity is not None
    fit = _sign_fit(*batch.terms(parity))
    w2, singular = batch.residual_variance(intercept=differenced)
    cause = np.where(
        fit.denom == 0.0, _DENOMINATOR, np.where(singular, _SINGULAR, np.where(w2 == 0.0, _VARIANCE, 0))
    ).astype(np.int8)
    stat = fit.gamma / np.sqrt((2.0 if differenced else 1.0) * np.where(w2 == 0.0, 1.0, w2))
    stat = np.where(fit.denom < 0, -stat, stat)  # sign(D)
    return _outcomes(stat, reference(None), sided, alpha, cause)


@dataclass(frozen=True)
class MethodSpec:
    """A test, as its family times its sample form (labels: module docstring).

    ``q`` set means the group t-test over q blocks, unset the hybrid test;
    ``parity`` set means the first-differenced sample of that parity, unset
    the levels sample.
    """

    q: Optional[int] = None
    parity: Optional[str] = None

    def __post_init__(self) -> None:
        typed_fields(self, DomainError)
        if self.q is not None and self.q < 2:
            raise DomainError(f"q must be at least 2 groups, got {self.q}")
        if self.parity is not None and self.parity not in PARITIES:
            raise DomainError(f"parity must be one of {', '.join(map(repr, PARITIES))}, got {self.parity!r}")

    @property
    def label(self) -> str:
        hybrid = "tau" if self.parity is None else f"tau_{self.parity[0]}"
        if self.q is None:
            return hybrid
        return f"t{self.q}" if self.parity is None else f"t{self.q}_{hybrid}"


def parse_method(label: str) -> MethodSpec:
    m = _METHOD_RE.match(label)
    if m is None:
        raise SchemaError(
            f"unknown method {label!r}; expected forms: t<q>, tau, tau_e, tau_o, t<q>_tau_e, t<q>_tau_o"
        )
    q = m.group("q") or m.group("gq")
    try:  # MethodSpec owns the value rules
        return MethodSpec(q=None if q is None else int(q), parity=_PARITIES.get(m.group("parity")))
    except DomainError as exc:
        raise SchemaError(f"method {label!r}: {exc}") from exc


def evaluate_method(method: MethodSpec, sample: RegressionSample, alpha: float, sided: str) -> TestOutcome:
    """Run the test a method label names on one sample's own batch of one."""
    return evaluate_batch(method, SampleBatch.of(sample), alpha, sided).single()


def evaluate_batch(method: MethodSpec, batch: SampleBatch, alpha: float, sided: str) -> BatchOutcomes:
    """Run the test a method label names on every sample of a batch."""
    if method.q is None:
        return hybrid_outcomes(batch, method.parity, alpha, sided)
    return group_t_outcomes(batch, method.q, method.parity, alpha, sided)


def t_q_test(groups: GroupStatistics, alpha: float, sided: str = "two") -> TestOutcome:
    """Group t-test on the per-block normalized numerators.

    The statistic is sqrt(q) * mean / sd of the q block values, referred to
    a t distribution with q-1 degrees of freedom.  ``groups`` holds one
    sample's q finite values.
    """
    gammas = _as_float_array(groups.gammas, "gammas")
    if gammas.ndim != 1:
        raise DomainError(f"gammas must hold one sample's values, got shape {gammas.shape}")
    return _group_t_outcomes(gammas[None], alpha, sided).single()


def hybrid_test(sample: RegressionSample, alpha: float, sided: str = "two") -> TestOutcome:
    """Sign-instrument numerator studentized by the no-intercept OLS
    residual standard deviation."""
    return hybrid_outcomes(SampleBatch.of(sample), None, alpha, sided).single()


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
    deviation.
    """
    return hybrid_outcomes(SampleBatch.of(sample), parity, alpha, sided).single()


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
    return group_t_outcomes(SampleBatch.of(sample), q, parity, alpha, sided).single()


def bonferroni_joint(sample: RegressionSample, alpha: float, sided: str = "two") -> JointTestOutcome:
    """Joint test of the K slopes of a K-predictor sample by the Bonferroni rule.

    Runs the hybrid test of each predictor alone, as the K rows of the
    sample's batch, and rejects the joint null when the smallest p-value is
    <= alpha / K.  A degenerate predictor raises its error, the first in order."""
    batch = hybrid_outcomes(sample.batch, None, alpha, sided)
    outcomes = tuple(batch.outcome(k) for k in range(sample.n_predictors))
    return JointTestOutcome(
        per_predictor=outcomes,
        method="bonferroni",
        joint_reject=bool(min(o.p_value for o in outcomes) <= alpha / len(outcomes)),
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
    check_level(alpha, "right")
    X = sample.x_matrix()
    k = X.shape[1]
    z = _sign(X, np.empty(X.shape))
    S = z.T @ z
    if np.linalg.matrix_rank(S) < k:
        raise SignDegeneracyError(_diagnose_sign_collinearity(z))
    _, residuals = ols_fit(sample, intercept=False)
    w2 = float(_mean_square(residuals))
    if w2 == 0.0:
        raise DegenerateVarianceError(DEGENERACIES[_VARIANCE - 1][1])
    b = z.T @ sample.y
    stat = float(b @ np.linalg.solve(S, b) / w2)
    p = dists.chi_square_sf(max(stat, 0.0), k)
    marginal = TestOutcome(
        statistic=stat,
        ref_dist=ReferenceDistribution("chi_square", df=k),
        p_value=p,
        sided="right",
        alpha=float(alpha),
        reject=p <= alpha,
    )
    return JointTestOutcome(
        per_predictor=(marginal,),
        method="wald",
        joint_reject=marginal.reject,
        alpha=float(alpha),
        wald_stat=stat,
    )
