"""Estimator contracts: hand-worked examples, algebraic identities, and
randomized cross-checks against direct loop-based formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cauchypred import (
    DegenerateDenominatorError,
    DomainError,
    PartitionError,
    RegressionSample,
    SampleBatch,
    SingularDesignError,
    cauchy_estimate,
    diff_cauchy,
    group_gammas,
    ols_fit,
    omega_hat_sq,
    recursive_demean,
    sign_conv,
)
from cauchypred.estimators import MAGNITUDE_BOUND, PARITIES, term_count
from cauchypred.inference import group_t_outcomes, hybrid_outcomes


def sample(y, x, lev=None):
    return RegressionSample(
        y=np.asarray(y, float),
        x_lag=np.asarray(x, float),
        x_level=None if lev is None else np.asarray(lev, float),
    )


class TestRegressionSample:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            sample([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            sample([1.0, np.nan], [1.0, 2.0])

    def test_level_consistency_enforced(self):
        with pytest.raises(DomainError):
            sample([1.0, 2.0], [1.0, 2.0], lev=[9.0, 2.0, 3.0])

    def test_level_ok(self):
        s = sample([1.0, 2.0], [0.5, 1.5], lev=[0.5, 1.5, 2.5])
        assert s.x_level is not None
        assert s.n_predictors == 1

    def test_multivariate_shape(self):
        s = RegressionSample(y=np.ones(4), x_lag=np.ones((4, 3)))
        assert s.n_predictors == 3

    def test_magnitude_bound(self):
        # past max|v| * sqrt(n) = MAGNITUDE_BOUND a sum of squares could
        # overflow and silently turn a statistic into 0
        gen = np.random.default_rng(3)
        y, x = gen.standard_normal(240), gen.standard_normal(240)
        with pytest.raises(DomainError, match="y is too large"):
            sample(1e160 * y, x)
        big = np.full(100_000, 1e150)
        with pytest.raises(DomainError, match="x_lag is too large"):
            sample(np.ones(100_000), big)
        # n is the number of observations: the rows of a T x K x_lag
        limit = MAGNITUDE_BOUND / np.sqrt(16)
        assert RegressionSample(y=np.full(16, limit), x_lag=np.full((16, 400), -limit)).n_obs == 16
        with pytest.raises(DomainError, match="x_lag is too large"):
            RegressionSample(y=np.ones(16), x_lag=np.full((16, 400), 1.01 * limit))
        # and the columns of a batch's (R, T) arrays
        SampleBatch(np.full((400, 16), limit), np.full((400, 16), -limit))
        with pytest.raises(DomainError, match="y is too large"):
            SampleBatch(np.full((400, 16), 1.01 * limit), np.ones((400, 16)))


def _malformed(fault):
    """A 12-observation sample (y, x_lag, x_level) with one fault."""
    gen = np.random.default_rng(8)
    y, lev = gen.standard_normal(12), np.cumsum(gen.standard_normal(13))
    x = lev[:-1].copy()
    name, _, kind = fault.partition(" ")
    # the bound at n = 12 observations, and so also past it for 13 levels
    values = {"nan": np.nan, "inf": -np.inf, "too large": 1.01 * MAGNITUDE_BOUND / np.sqrt(12)}
    if kind in values:
        # the last entry: a fault in the last level leaves x_lag intact
        {"y": y, "x_lag": x, "x_level": lev}[name][-1] = values[kind]
    elif fault == "T = 1":
        y, x, lev = y[:1], x[:1], lev[:2]
    elif fault == "x_level length":
        lev = np.append(lev, 0.0)
    elif fault == "x_level differs":
        lev = lev + 1.0
    return y, x, lev


class TestOneDataValidator:
    # RegressionSample checks its data by building a SampleBatch, so every
    # data fault fails both, with and without levels where that applies
    @pytest.mark.parametrize("fault", [
        "y nan", "y inf", "y too large", "x_lag nan", "x_lag inf", "x_lag too large",
        "x_level nan", "x_level inf", "x_level too large", "T = 1", "x_level length",
        "x_level differs",
    ])
    def test_rejected_by_sample_and_batch(self, fault):
        y, x, lev = _malformed(fault)
        with pytest.raises(DomainError):
            RegressionSample(y=y, x_lag=x, x_level=lev)
        with pytest.raises(DomainError):
            SampleBatch(y[None], x[None], lev[None])
        if not fault.startswith("x_level"):
            with pytest.raises(DomainError):
                RegressionSample(y=y, x_lag=x)
            with pytest.raises(DomainError):
                SampleBatch(y[None], x[None])
        # the same sample without its fault is accepted by both
        y, x, lev = _malformed("none")
        RegressionSample(y=y, x_lag=x, x_level=lev)
        SampleBatch(y[None], x[None], lev[None])

    def test_multivariate_columns_checked_with_the_response(self):
        gen = np.random.default_rng(9)
        y, x = gen.standard_normal(20), gen.standard_normal((20, 3))
        x[4, 2] = np.nan
        with pytest.raises(DomainError, match="x_lag contains non-finite"):
            RegressionSample(y=y, x_lag=x)
        with pytest.raises(DomainError, match="univariate"):
            RegressionSample(y=y, x_lag=gen.standard_normal((20, 2)), x_level=np.zeros(21))


class TestTermCount:
    @pytest.mark.parametrize("parity", (None,) + PARITIES)
    def test_matches_the_kernel(self, parity):
        # the size rule validate checks is the one the kernel applies
        gen = np.random.default_rng(10)
        for n in range(2, 41):
            lev = np.cumsum(gen.standard_normal(n + 1))
            batch = SampleBatch(gen.standard_normal((1, n)), lev[None, :-1], lev[None])
            try:
                expected = batch.terms(parity)[0].shape[-1]
            except DomainError as exc:
                with pytest.raises(DomainError, match=str(exc)):
                    term_count(n, parity)
                # fewer than 2 pairs: (y_1, y_2) alone even, (y_2, y_3) alone odd
                assert n < {"even": 4, "odd": 5}[parity]
                continue
            assert term_count(n, parity) == expected


class TestSignConv:
    def test_zero_is_plus_one(self):
        assert sign_conv(0.0) == 1.0

    def test_negative(self):
        assert sign_conv(-3.2) == -1.0

    def test_tiny_positive(self):
        assert sign_conv(1e-300) == 1.0

    def test_array(self):
        assert_allclose(sign_conv(np.array([-1.0, 0.0, 2.0])), [-1.0, 1.0, 1.0])


class TestCauchyEstimate:
    def test_exact_fit(self):
        fit = cauchy_estimate(sample([2.0, -4.0, 6.0], [1.0, -2.0, 3.0]))
        assert fit.beta == pytest.approx(2.0, abs=1e-12)

    def test_hand_example(self):
        fit = cauchy_estimate(sample([3.0, -1.0], [1.0, -1.0]))
        assert fit.beta == pytest.approx(2.0, abs=1e-12)
        assert fit.gamma == pytest.approx(4.0 / np.sqrt(2.0), abs=1e-12)
        assert fit.denom == pytest.approx(2.0)

    def test_zero_predictor_uses_plus_sign(self):
        fit = cauchy_estimate(sample([5.0, 1.0], [0.0, 1.0]))
        assert fit.beta == pytest.approx(6.0, abs=1e-12)

    def test_all_zero_predictor(self):
        with pytest.raises(DegenerateDenominatorError):
            cauchy_estimate(sample([1.0, 2.0], [0.0, 0.0]))

    def test_matches_direct_formula_on_random_samples(self):
        # direct loop evaluation as the oracle
        gen = np.random.default_rng(20260809)
        for _ in range(1000):
            n = int(gen.integers(2, 30))
            x = gen.standard_normal(n) * gen.exponential(1.0)
            y = gen.standard_normal(n)
            num = sum((1.0 if xi >= 0 else -1.0) * yi for xi, yi in zip(x, y))
            den = sum(abs(xi) for xi in x)
            fit = cauchy_estimate(sample(y, x))
            assert fit.beta == pytest.approx(num / den, rel=1e-12, abs=1e-12)
            assert fit.gamma == pytest.approx(num / np.sqrt(n), rel=1e-12, abs=1e-12)

    def test_gamma_identity(self):
        gen = np.random.default_rng(7)
        x = gen.standard_normal(40)
        y = gen.standard_normal(40)
        fit = cauchy_estimate(sample(y, x))
        assert fit.gamma == pytest.approx(fit.denom * fit.beta / np.sqrt(fit.n_used), abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, c):
        gen = np.random.default_rng(11)
        x = gen.standard_normal(25)
        y = gen.standard_normal(25)
        base = cauchy_estimate(sample(y, x))
        scaled_y = cauchy_estimate(sample(c * y, x))
        assert scaled_y.beta == pytest.approx(c * base.beta, rel=1e-9)
        assert scaled_y.gamma == pytest.approx(c * base.gamma, rel=1e-9)
        scaled_x = cauchy_estimate(sample(y, c * x))
        assert scaled_x.beta == pytest.approx(base.beta / c, rel=1e-9)
        # only signs enter the numerator, so gamma ignores positive x-scaling
        assert scaled_x.gamma == pytest.approx(base.gamma, rel=1e-9)


class TestGroupGammas:
    def test_hand_example(self):
        s = sample([1.0, 2.0, 3.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        g = group_gammas(s, 2)
        assert_allclose(g.gammas, [np.sqrt(2 / 6) * 6, np.sqrt(2 / 6) * (-3)], atol=1e-12)
        assert g.block_size == 3
        assert g.dropped == 0

    def test_remainder_dropped(self):
        gen = np.random.default_rng(3)
        s = sample(gen.standard_normal(10), gen.standard_normal(10))
        g = group_gammas(s, 3)
        assert g.block_size == 3
        assert g.dropped == 1

    def test_zero_response(self):
        s = sample(np.zeros(8), np.ones(8))
        assert_allclose(group_gammas(s, 4).gammas, np.zeros(4))

    def test_partition_error(self):
        s = sample(np.ones(4), np.ones(4))
        with pytest.raises(PartitionError):
            group_gammas(s, 5)

    def test_partition_consistency(self):
        # recombining the group sums reproduces the full-sample numerator
        # over the retained observations
        gen = np.random.default_rng(5)
        y = gen.standard_normal(23)
        x = gen.standard_normal(23)
        s = sample(y, x)
        q = 4
        g = group_gammas(s, q)
        used = q * g.block_size
        direct = np.sum(sign_conv(x[:used]) * y[:used]) / np.sqrt(23)
        recombined = np.sum(g.gammas) * np.sqrt(23 / q) / np.sqrt(23)
        assert recombined == pytest.approx(direct, abs=1e-12)


class TestOlsFit:
    def test_no_intercept_exact(self):
        beta, res = ols_fit(sample([2.0, 4.0], [1.0, 2.0]), intercept=False)
        assert beta[0] == pytest.approx(2.0, abs=1e-12)
        assert_allclose(res, [0.0, 0.0], atol=1e-12)

    def test_no_intercept_hand_normal_equations(self):
        beta, res = ols_fit(sample([1.0, 1.0], [1.0, -1.0]), intercept=False)
        assert beta[0] == pytest.approx(0.0, abs=1e-12)
        assert_allclose(res, [1.0, 1.0], atol=1e-12)

    def test_intercept_constant_response(self):
        beta, res = ols_fit(sample([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]), intercept=True)
        assert beta[0] == pytest.approx(0.0, abs=1e-12)
        assert_allclose(res, np.zeros(3), atol=1e-12)

    def test_residual_orthogonality(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal(60)
        y = 0.3 * x + gen.standard_normal(60)
        s = sample(y, x)
        for intercept in (False, True):
            _, res = ols_fit(s, intercept=intercept)
            xd = x - x.mean() if intercept else x
            scale = np.sqrt(np.sum(xd * xd)) * np.sqrt(np.sum(res * res)) + 1e-30
            assert abs(np.sum(xd * res)) <= 1e-8 * scale
            if intercept:
                assert abs(np.sum(res)) <= 1e-8 * (np.sqrt(60 * np.sum(res * res)) + 1e-30)

    def test_singular_design(self):
        with pytest.raises(SingularDesignError):
            ols_fit(sample([1.0, 2.0], [0.0, 0.0]), intercept=False)
        with pytest.raises(SingularDesignError):
            ols_fit(sample([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]), intercept=True)


class TestOmegaHatSq:
    @pytest.mark.parametrize(
        "residuals,expected",
        [([0.0, 0.0, 0.0], 0.0), ([1.0, 1.0], 1.0), ([3.0, -4.0], 12.5)],
    )
    def test_values(self, residuals, expected):
        assert omega_hat_sq(residuals) == pytest.approx(expected, abs=1e-14)


class TestDiffCauchy:
    def test_hand_example(self):
        # levels 1, 2, -1, 3 with responses 0, 5, 1, 4:
        # even terms +(5-0) and sign(-1)(4-1); denominator (2-1) + sign(-1)(3+1)
        s = sample(
            [0.0, 5.0, 1.0, 4.0],
            [1.0, 2.0, -1.0, 3.0],
            lev=[1.0, 2.0, -1.0, 3.0, 0.5],
        )
        fit = diff_cauchy(s, "even")
        assert fit.beta == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert fit.denom == pytest.approx(-3.0)
        assert fit.n_used == 2
        assert fit.gamma == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-12)

    def test_constant_response_gives_zero(self):
        gen = np.random.default_rng(21)
        lev = np.cumsum(gen.standard_normal(13))
        s = sample(np.full(12, 3.7), lev[:-1], lev=lev)
        for parity in ("even", "odd"):
            assert diff_cauchy(s, parity).beta == pytest.approx(0.0, abs=1e-12)

    def test_exact_recovery_with_intercept(self):
        # responses follow an exact linear rule plus a constant
        gen = np.random.default_rng(22)
        lev = np.cumsum(gen.standard_normal(21))
        y = 1.4 * lev[:-1] + 0.9
        s = sample(y, lev[:-1], lev=lev)
        for parity in ("even", "odd"):
            assert diff_cauchy(s, parity).beta == pytest.approx(1.4, rel=1e-12)

    def test_parities_use_disjoint_differences(self):
        # even uses the differences d_k = y_{k+1} - y_k at odd k, odd parity
        # at even k; perturbing a single d_k moves exactly one of the two
        T = 12
        gen = np.random.default_rng(23)
        lev = np.cumsum(gen.standard_normal(T + 1))
        y = gen.standard_normal(T)
        base = {p: diff_cauchy(sample(y, lev[:-1], lev=lev), p).gamma for p in ("even", "odd")}
        for k in range(1, T):  # 1-based difference index
            bumped = y.copy()
            bumped[k:] += 1.0  # step after position k changes only d_k
            new = {
                p: diff_cauchy(sample(bumped, lev[:-1], lev=lev), p).gamma
                for p in ("even", "odd")
            }
            touched = "even" if k % 2 == 1 else "odd"
            untouched = "odd" if touched == "even" else "even"
            assert new[untouched] == pytest.approx(base[untouched], abs=1e-12)
            assert new[touched] != pytest.approx(base[touched], abs=1e-9)

    def test_requires_levels(self):
        with pytest.raises(DomainError):
            diff_cauchy(sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]), "even")

    def test_bad_parity_reported_first(self):
        # the parity is checked before the levels, by the term builder every
        # differenced statistic and batch kernel shares
        s = sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        for run in (
            lambda: diff_cauchy(s, "up"),
            lambda: hybrid_outcomes(SampleBatch.of(s), "up", 0.05),
            lambda: group_t_outcomes(SampleBatch.of(s), 2, "up", 0.05),
        ):
            with pytest.raises(DomainError, match="parity must be 'even' or 'odd', got 'up'"):
                run()

    def test_degenerate_denominator(self):
        lev = np.ones(9)
        s = sample(np.arange(8, dtype=float), lev[:-1], lev=lev)
        with pytest.raises(DegenerateDenominatorError):
            diff_cauchy(s, "even")


class TestRecursiveDemean:
    def test_constant_becomes_zero(self):
        assert_allclose(recursive_demean(np.full(7, 4.2)), np.zeros(7), atol=1e-14)

    def test_hand_example(self):
        assert_allclose(recursive_demean([1.0, 3.0]), [0.0, 1.0], atol=1e-14)

    def test_first_entry_zero(self):
        gen = np.random.default_rng(4)
        out = recursive_demean(gen.standard_normal(50))
        assert out[0] == 0.0

    def test_adapted(self):
        # entry t only depends on inputs up to t
        gen = np.random.default_rng(6)
        x = gen.standard_normal(30)
        base = recursive_demean(x)
        x2 = x.copy()
        x2[20:] += 100.0
        assert_allclose(recursive_demean(x2)[:20], base[:20], atol=1e-12)
