"""Estimator contracts: hand-worked examples, algebraic identities, and
randomized cross-checks against direct loop-based formulas."""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cauchypred import (
    DegenerateDenominatorError,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    DomainError,
    PartitionError,
    RegressionSample,
    SampleBatch,
    SingularDesignError,
    cauchy_estimate,
    diff_cauchy,
    estimators,
    group_gammas,
    grouped_hybrid_test,
    hybrid_test,
    hybrid_test_intercept,
    ols_fit,
    omega_hat_sq,
    recursive_demean,
    sign_conv,
    simulate_continuous_batch,
    simulate_discrete_batch,
    t_q_test,
)
from cauchypred.estimators import MAGNITUDE_BOUND, PARITIES, Workspace, _ols, diff_terms, term_count
from cauchypred.experiments import evaluate_method, parse_method
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

    @pytest.mark.parametrize("fault", ["nan", "inf"])
    def test_levels_view_is_checked_through_the_levels(self, fault):
        # x_lag given with the levels is compared with them, whether it is
        # their own view or a copy; a fault in the view is one in the
        # levels, which their check catches first
        gen = np.random.default_rng(10)
        y, lev = gen.standard_normal((3, 12)), np.cumsum(gen.standard_normal((3, 13)), axis=1)
        SampleBatch(y, lev[:, :-1], lev)
        SampleBatch(y, lev[:, :-1].copy(), lev)  # an equal copy passes too
        # not equal: the same shape and strides elsewhere, the same memory
        # with other strides, or a different array
        zero_stride = np.lib.stride_tricks.as_strided(lev, (3, 12), (lev.strides[0], 0))
        for x_lag in (lev[:, 1:], zero_stride, lev[:, :-1] + 1.0):
            with pytest.raises(DomainError, match="x_lag must equal"):
                SampleBatch(y, x_lag, lev)
        lev[1, 4] = {"nan": np.nan, "inf": np.inf}[fault]
        with pytest.raises(DomainError, match="x_level contains non-finite"):
            SampleBatch(y, lev[:, :-1], lev)


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

    @pytest.mark.parametrize("intercept", [False, True])
    def test_one_predictor_fit_matches_matmul_bitwise(self, intercept):
        # the fitted values of one predictor are a product, bit for bit the
        # matmul over an inner dimension of 1, also on a singular row and
        # on signed zeros
        gen = np.random.default_rng(11)
        X = gen.standard_normal((6, 40, 1))
        y = np.array([0.5, 0.5, -0.5, 0, 0, 0])[:, None] * X[..., 0] + gen.standard_normal((6, 40))
        X[0] = 0.0  # singular
        X[1:3, :5], y[1:3, :5] = -0.0, -0.0  # -0 fits of either sign beside -0 responses
        y[3, :3] = -0.0
        with Workspace() as ws:
            beta, residuals, singular = _ols(y, X, intercept, ws)
        yc = y - y.mean(axis=-1, keepdims=True) if intercept else y
        Xc = X - X.mean(axis=-2, keepdims=True) if intercept else X
        xtx, xty = np.swapaxes(Xc, -1, -2) @ Xc, np.swapaxes(Xc, -1, -2) @ yc[..., None]
        expected_singular = xtx[..., 0, 0] == 0.0
        expected_beta = xty / np.where(expected_singular, np.inf, xtx[..., 0, 0])[..., None, None]
        expected = yc - np.matmul(Xc, expected_beta)[..., 0]
        assert singular.tolist() == expected_singular.tolist() == [True] + [False] * 5
        assert np.array_equal(beta.view(np.int64), expected_beta[..., 0].view(np.int64))
        assert np.array_equal(residuals.view(np.int64), expected.view(np.int64))

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


class TestWorkspace:
    def test_frames_nest(self):
        ws = Workspace()
        with ws:
            outer = ws.scratch((3,))
            with ws:
                inner = ws.scratch((4,))
                inner_2 = ws.scratch((2, 2), bool)
            # the inner frame has exited: the next scratch reuses its buffer
            after = ws.scratch((4,))
            assert np.shares_memory(after, inner)
            assert not np.shares_memory(after, outer) and not np.shares_memory(inner_2, inner)
            named = ws.array("kept", (4,))
            assert not any(np.shares_memory(named, a) for a in (outer, inner, inner_2))
        with ws:  # a larger request grows the buffer; a smaller one views it
            grown = ws.scratch((50,))
        with ws:
            assert np.shares_memory(ws.scratch((2, 3), np.intp), grown)
        assert np.shares_memory(ws.array("kept", (2,)), named)

    def test_exception_restores_the_depth(self):
        ws = Workspace()
        with ws:
            first = ws.scratch((5,))
        with pytest.raises(ZeroDivisionError):
            with ws:
                ws.scratch((5,))
                with ws:
                    ws.scratch((5,))
                    raise ZeroDivisionError
        # both frames exited: the next scratch is again the first buffer
        with ws:
            assert np.shares_memory(ws.scratch((5,)), first)


class TestOneAllocator:
    """A public call given no workspace makes its own: two calls' results
    never share memory, and a later call leaves an earlier result as it was."""

    @staticmethod
    def assert_independent(call):
        first = call(0)
        kept = [a.copy() for a in first]
        second = call(1)
        for a, b, k in zip(first, second, kept):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, k)
            assert not np.array_equal(a, b)

    def test_simulated_batches(self):
        discrete = DgpDiscreteConfig(n_obs=60, kappa_bar=5.0, vol_model="RS")
        continuous = DgpContinuousConfig(years=5.0, vol_model="GBM")
        for config, simulate in ((discrete, simulate_discrete_batch), (continuous, simulate_continuous_batch)):
            for rows in (3, 30):  # the row-by-row and the vector-step AR

                def call(seed):
                    batch = simulate(config, seed, range(rows))
                    return [batch.y, batch.x_lag, *batch.terms(None), *batch.residual_variance(True)[:1]]

                self.assert_independent(call)

    def test_batch_terms(self):
        gen = np.random.default_rng(8)
        data = [(gen.standard_normal((4, 40)), gen.standard_normal((4, 41))) for _ in range(2)]

        def call(i):
            y, lev = data[i]
            batch = SampleBatch(y, lev[:, :-1], lev)
            return [t for parity in (None, "even", "odd") for t in batch.terms(parity)]

        self.assert_independent(call)

    def test_single_sample_estimators(self):
        gen = np.random.default_rng(9)
        samples = [sample(gen.standard_normal(40), lev[:-1], lev) for lev in gen.standard_normal((2, 41))]

        def call(i):
            s = samples[i]
            out = [group_gammas(s, 4).gammas, *ols_fit(s, intercept=True)]
            return out + [t for parity in PARITIES for t in diff_terms(s, parity)]

        self.assert_independent(call)
        fits = [cauchy_estimate(s) for s in samples]
        assert fits[0] == cauchy_estimate(samples[0]) and fits[0] != fits[1]


# every method label form, at two group counts
LABELS = ("tau", "tau_e", "tau_o", "t8", "t12", "t8_tau_e", "t12_tau_e", "t8_tau_o", "t12_tau_o")


def every_method(s):
    """Every method label's outcome on a sample, by label."""
    return {label: evaluate_method(parse_method(label), s, 0.05, "two") for label in LABELS}


def random_levels(seed, T):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(T), np.cumsum(gen.standard_normal(T + 1))


class TestOneBatchPerSample:
    """A sample keeps the one batch that validated its private, read-only
    copies of the data, and every single-sample call runs on that batch."""

    def test_validated_once_and_intermediates_shared(self, monkeypatch):
        y, lev = random_levels(11, 240)
        inits, fits = [], []
        init, ols = SampleBatch.__init__, estimators._ols
        monkeypatch.setattr(SampleBatch, "__init__", lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
        monkeypatch.setattr(estimators, "_ols", lambda *a: fits.append(a[2]) or ols(*a))
        s = RegressionSample(y=y, x_lag=lev[:-1], x_level=lev)
        assert SampleBatch.of(s) is SampleBatch.of(s)
        for _ in range(2):
            cauchy_estimate(s)
            t_q_test(group_gammas(s, 12), 0.05)
            hybrid_test(s, 0.05)
            for parity in PARITIES:
                diff_terms(s, parity)
                diff_cauchy(s, parity)
                hybrid_test_intercept(s, parity, 0.05)
                grouped_hybrid_test(s, parity, 8, 0.05)
            every_method(s)
        assert len(inits) == 1
        assert sorted(fits) == [False, True]  # one OLS fit with and one without intercept
        multivariate = RegressionSample(y=y, x_lag=np.stack([lev[:-1], y], axis=1))
        assert len(inits) == 2
        with pytest.raises(DomainError, match="univariate"):
            SampleBatch.of(multivariate)

    def test_inputs_are_copied_and_read_only(self):
        y, lev = random_levels(12, 120)
        x = lev[:-1].copy()
        s = RegressionSample(y=y, x_lag=x, x_level=lev)
        expected = every_method(RegressionSample(y=y.copy(), x_lag=x.copy(), x_level=lev.copy()))
        # the caller's arrays change after construction, before and after the first call
        y += 1.0
        x *= -1.0
        assert every_method(s) == expected
        lev[:] = 0.0
        numer, denom = diff_terms(s, "odd")
        numer[:] = 0.0  # the result is the caller's; the sample's cached terms are not
        denom[:] = 0.0
        assert every_method(s) == expected
        for kept in (s, pickle.loads(pickle.dumps(s))):
            assert every_method(kept) == expected
            for name in ("y", "x_lag", "x_level"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(kept, name)[0] = 1.0
        multivariate = RegressionSample(y=y, x_lag=np.stack([x, y], axis=1))
        for a in (multivariate.y, multivariate.x_lag):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_threads_share_one_sample(self):
        # more threads than cores, switching often, start together on each
        # fresh sample, each in its own order: every cache fill of the shared
        # batch takes its own workspace, so all see the serial outcomes
        data = [random_levels(100 + i, 2000) for i in range(40)]
        serial = [every_method(RegressionSample(y=y, x_lag=lev[:-1], x_level=lev)) for y, lev in data]
        n_threads = 8
        results = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads, timeout=60)
        shared = [RegressionSample(y=y, x_lag=lev[:-1], x_level=lev) for y, lev in data]

        def run(i):
            order = LABELS[i % len(LABELS):] + LABELS[: i % len(LABELS)]
            for s in shared:
                barrier.wait()
                results[i].append({label: evaluate_method(parse_method(label), s, 0.05, "two") for label in order})

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * n_threads
