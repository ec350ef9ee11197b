"""Test-layer contracts: worked statistics, decision consistency, algebraic
identities across tests, and degenerate-input errors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr

from cauchypred import (
    DegenerateDenominatorError,
    DegenerateGroupsError,
    DgpDiscreteConfig,
    DegenerateVarianceError,
    DomainError,
    GroupStatistics,
    PartitionError,
    RegressionSample,
    RngStream,
    SampleBatch,
    SignDegeneracyError,
    bonferroni_joint,
    cauchy_estimate,
    chi_square_sf,
    grouped_hybrid_test,
    group_gammas,
    hybrid_test,
    hybrid_test_intercept,
    ols_fit,
    omega_hat_sq,
    sign_conv,
    simulate_discrete,
    t_q_test,
    wald_joint,
)
from cauchypred import dists, inference
from cauchypred.estimators import diff_cauchy
from cauchypred.experiments import evaluate_method, parse_method
from cauchypred.inference import (
    SIDES,
    ReferenceDistribution,
    _outcomes,
    _p_value,
    critical_value,
    group_t_outcomes,
    reference,
)


def groups(values):
    v = np.asarray(values, float)
    return GroupStatistics(q=len(v), gammas=v, block_size=1, dropped=0)


def sample(y, x, lev=None):
    return RegressionSample(
        y=np.asarray(y, float),
        x_lag=np.asarray(x, float),
        x_level=None if lev is None else np.asarray(lev, float),
    )


def random_walk_sample(seed, T, with_levels=False):
    gen = np.random.default_rng(seed)
    lev = np.concatenate([[0.0], np.cumsum(gen.standard_normal(T))])
    y = gen.standard_normal(T)
    return sample(y, lev[:-1], lev=lev if with_levels else None)


class TestTqTest:
    def test_hand_statistic(self):
        out = t_q_test(groups([1.0, 2.0, 3.0, 4.0]), alpha=0.05)
        # mean 2.5, sd sqrt(5/3); sqrt(4) * 2.5 / 1.29099 = 3.8730
        assert out.statistic == pytest.approx(3.8730, abs=5e-5)
        assert out.ref_dist.df == 3

    def test_identical_groups_degenerate(self):
        with pytest.raises(DegenerateGroupsError):
            t_q_test(groups([2.0, 2.0, 2.0, 2.0]), alpha=0.05)

    def test_antisymmetry(self):
        g = [0.3, -1.2, 0.8, 2.0, -0.5]
        a = t_q_test(groups(g), 0.05).statistic
        b = t_q_test(groups([-v for v in g]), 0.05).statistic
        assert a == pytest.approx(-b, abs=1e-12)

    def test_location_shift_identity(self):
        g = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
        c = 0.7
        base = t_q_test(groups(g), 0.05)
        shifted = t_q_test(groups(g + c), 0.05)
        q = len(g)
        sd = g.std(ddof=1)
        assert shifted.statistic == pytest.approx(
            np.sqrt(q) * (g.mean() + c) / sd, abs=1e-10
        )
        assert sd == pytest.approx((g + c).std(ddof=1), abs=1e-12)
        assert base.ref_dist == shifted.ref_dist

    def test_large_alpha_flagged_not_rejected(self):
        out = t_q_test(groups([1.0, 2.0, 3.0]), alpha=0.9)
        assert out.warning is not None

    def test_decision_consistency(self):
        for sided in ("two", "right", "left"):
            out = t_q_test(groups([1.0, 2.0, 3.0, 4.0]), alpha=0.05, sided=sided)
            assert out.reject == (out.p_value <= out.alpha)

    def test_two_sided_p_is_twice_min_tail(self):
        ref = ReferenceDistribution("student_t", df=6)
        for stat in (-2.4, -0.1, 0.0, 1.7):
            left = _p_value(stat, ref, "left")
            right = _p_value(stat, ref, "right")
            assert _p_value(stat, ref, "two") == pytest.approx(2 * min(left, right), abs=1e-12)


class TestTailPValues:
    # 1 - cdf loses the tail this far out (at 10 it rounds to 0); abs=0 so
    # a zero or imprecise p-value cannot pass on absolute tolerance
    def test_normal_right_tail(self):
        p = _p_value(10.0, ReferenceDistribution("std_normal"), "right")
        assert p == pytest.approx(7.61985302416047e-24, rel=1e-10, abs=0)

    def test_student_t_right_tail(self):
        p = _p_value(40.0, ReferenceDistribution("student_t", df=5), "right")
        assert p == pytest.approx(stdtr(5, -40.0), rel=1e-12, abs=0)

    def test_two_sided_far_tail(self):
        p = _p_value(10.0, ReferenceDistribution("std_normal"), "two")
        assert p == pytest.approx(2 * 7.61985302416047e-24, rel=1e-10, abs=0)


REFERENCES = [reference(q) for q in (2, 8, 12, 16, 200, None)]  # t(1), t(7), ..., t(199), N(0, 1)


def _ref_id(ref):
    return ref.family if ref.df is None else f"t{ref.df}"


def _oriented_sweep(c):
    """c, 1 to 1000 representable steps either side of it, and c moved by
    1e-9 to 1e-6 of |c| and of max(1, |c|)."""
    values = [c]
    for direction in (math.inf, -math.inf):
        x = c
        for _ in range(1000):
            x = math.nextafter(x, direction)
            values.append(x)
    rel = np.logspace(-9, -6, 13)
    scale = max(1.0, abs(c))
    return np.concatenate([values, c * (1 + rel), c * (1 - rel), c + rel * scale, c - rel * scale])


class TestCriticalValueDecision:
    # reject comes from the critical value; only a statistic within
    # 1e-9 max(1, |c|) of it decides by its p-value
    @pytest.mark.parametrize("ref", REFERENCES, ids=_ref_id)
    @pytest.mark.parametrize("sided", SIDES)
    def test_boundary_sweep_decides_as_the_p_value(self, ref, sided):
        for alpha in (1e-6, 0.01, 0.05, 0.08326, 0.5, 0.7, 0.99):
            oriented = _oriented_sweep(critical_value(ref, alpha, sided))
            stat = {"two": np.concatenate([oriented, -oriented]), "right": oriented, "left": -oriented}[sided]
            out = _outcomes(stat, ref, sided, alpha, np.zeros(stat.shape, dtype=np.int8))
            assert np.array_equal(out.reject, out.p_value <= alpha), alpha
            assert out.reject.any() and not out.reject.all(), alpha

    @pytest.mark.parametrize("ref", REFERENCES, ids=_ref_id)
    def test_critical_values_by_side(self, ref):
        for alpha in (1e-6, 0.05, 0.3):
            c = critical_value(ref, alpha, "right")
            assert c == ref.two_sided_cv(2 * alpha)
            assert critical_value(ref, alpha, "left") == c
            # above 1/2: minus the value at the complement level, as rounded
            assert critical_value(ref, 1 - alpha, "right") == -ref.two_sided_cv(2 * (1 - (1 - alpha)))
            assert _p_value(c, ref, "right") == pytest.approx(alpha, rel=1e-12)
            assert _p_value(critical_value(ref, alpha, "two"), ref, "two") == pytest.approx(alpha, rel=1e-12)
        assert critical_value(ref, 0.5, "right") == 0.0

    def test_undefined_rows_do_not_reject(self):
        cause = np.array([0, 4, 0], dtype=np.int8)
        out = _outcomes(np.array([5.0, 5.0, 0.1]), reference(None), "two", 0.05, cause)
        assert out.reject.tolist() == [True, False, False]
        assert np.isnan(out.statistic[1]) and np.isnan(out.p_value[1])


class TestHybridTest:
    def test_hand_example(self):
        out = hybrid_test(sample([1.0, 1.0], [1.0, -1.0]), alpha=0.05)
        # slope 0, residual variance 1, numerator 0
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_value == pytest.approx(1.0, abs=1e-12)
        assert out.ref_dist.family == "std_normal"

    def test_perfect_fit_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            hybrid_test(sample([1.0, 1.0], [1.0, 1.0]), alpha=0.05)

    def test_positive_x_rescale_invariance(self):
        s = random_walk_sample(2, 80)
        base = hybrid_test(s, 0.05).statistic
        for c in (0.25, 3.0, 1e4):
            scaled = hybrid_test(sample(s.y, c * s.x_lag), 0.05).statistic
            assert scaled == pytest.approx(base, rel=1e-10)


class TestHybridIntercept:
    def test_hand_worked_value(self):
        # 4-point series: differenced numerator 2 over 2 pairs, demeaned OLS
        # residual variance computed by hand below
        y = np.array([0.0, 5.0, 1.0, 4.0])
        lev = np.array([1.0, 2.0, -1.0, 3.0, 0.5])
        s = sample(y, lev[:-1], lev=lev)
        fit = diff_cauchy(s, "even")
        bh, res = ols_fit(s, intercept=True)
        w2 = omega_hat_sq(res)
        expected = np.sign(fit.denom) * fit.gamma / np.sqrt(2 * w2)
        # direct recomputation from raw series
        yd = y - y.mean()
        xd = lev[:-1] - lev[:-1].mean()
        bhat = np.sum(xd * yd) / np.sum(xd * xd)
        uu = yd - bhat * xd
        direct = -1.0 * (2.0 / np.sqrt(2.0)) / np.sqrt(2 * np.mean(uu * uu))
        assert expected == pytest.approx(direct, rel=1e-12)
        out = hybrid_test_intercept(s, "even", alpha=0.05)
        assert out.statistic == pytest.approx(direct, rel=1e-12)

    def test_pure_intercept_noise_free_degenerate(self):
        lev = np.array([1.0, -2.0, 3.0, -1.0, 2.0, 1.5, -0.5])
        y = np.full(6, 2.5)
        with pytest.raises(DegenerateVarianceError):
            hybrid_test_intercept(sample(y, lev[:-1], lev=lev), "even", 0.05)

    def test_intercept_immunity(self):
        # adding a constant to the response leaves the statistic unchanged
        s = random_walk_sample(4, 100, with_levels=True)
        base = hybrid_test_intercept(s, "odd", 0.05).statistic
        shifted = sample(s.y + 11.0, s.x_lag, lev=s.x_level)
        assert hybrid_test_intercept(shifted, "odd", 0.05).statistic == pytest.approx(
            base, rel=1e-10
        )


class TestGroupedHybrid:
    def test_scale_invariance_under_common_divisor(self):
        s = random_walk_sample(5, 200, with_levels=True)
        base = grouped_hybrid_test(s, "odd", 8, 0.05).statistic
        scaled = sample(3.7 * s.y, s.x_lag, lev=s.x_level)
        assert grouped_hybrid_test(scaled, "odd", 8, 0.05).statistic == pytest.approx(
            base, rel=1e-12
        )

    def test_all_equal_numerators_degenerate(self):
        # constant positive differences with a constant-sign instrument
        T = 16
        lev = np.arange(T + 1, dtype=float) + 1.0
        y = np.arange(T, dtype=float)
        with pytest.raises(DegenerateGroupsError):
            grouped_hybrid_test(sample(y, lev[:-1], lev=lev), "even", 4, 0.05)

    def test_matches_manual_partition(self):
        s = random_walk_sample(6, 150, with_levels=True)
        out = grouped_hybrid_test(s, "even", 5, 0.05)
        assert out.ref_dist.df == 4
        assert out.reject == (out.p_value <= 0.05)

    @pytest.mark.parametrize("q", [8, 12, 16])
    def test_too_few_pairs_for_q_blocks(self, q):
        # the terms of T observations number floor((T - 1) / 2) for odd
        # pairs, fewer than q at T = 2q - 1 and T = 2q, q at T = 2q + 1;
        # floor(T / 2) for even pairs, fewer than q at T = 2q - 1, q at 2q;
        # T for the levels form t<q>, fewer than q at T = q - 1, q at T = q
        cases = [
            ("odd", 2 * q - 1, False), ("odd", 2 * q, False), ("odd", 2 * q + 1, True),
            ("even", 2 * q - 1, False), ("even", 2 * q, True),
            (None, q - 1, False), (None, q, True),
        ]
        for parity, T, enough in cases:
            samples = [random_walk_sample(q + T + k, T, with_levels=True) for k in range(3)]
            s = samples[0]
            batch = SampleBatch(
                y=np.stack([t.y for t in samples]),
                x_lag=np.stack([t.x_lag for t in samples]),
                x_level=np.stack([t.x_level for t in samples]),
            )

            def wrapper():
                if parity is None:
                    return t_q_test(group_gammas(s, q), 0.05)
                return grouped_hybrid_test(s, parity, q, 0.05)

            def kernel():
                return group_t_outcomes(batch, q, parity, 0.05)

            if enough:
                assert wrapper().statistic != 0.0
                assert kernel().statistic[0] == wrapper().statistic
            else:
                for run in (wrapper, kernel):
                    with pytest.raises(PartitionError, match=f"into q={q} groups"):
                        run()


def extreme_point_size(q, alpha, sided):
    """The group t-test's largest size over the Bakirov-Szekely extreme
    points: k of the q block values N(0, 1), the rest 0, for k = 2..q (at
    k = 1 the statistic is +-1, which never rejects at these levels)."""
    c = critical_value(reference(q), alpha, sided)
    sizes = []
    for k in range(2, q + 1):
        # |t| > c  <=>  S^2 / (k Q) > b  <=>  |T_{k-1}| > c_k
        b = q * c * c / (k * (q - 1 + c * c))
        if b < 1:
            c_k = math.sqrt((k - 1) * b / (1 - b))
            sizes.append((2 if sided == "two" else 1) * float(dists.student_t(-c_k, k - 1)))
    return max(sizes)


class TestAlphaValidityBound:
    # above q = 14 groups the two-sided bound is 0.08326 (Bakirov & Szekely
    # 2006); by symmetry the one-sided bound is half of it, 0.04163
    CASES = [
        (0.05, "right", True),
        (0.04, "right", False),
        (0.09, "two", True),
        (0.08, "two", False),
    ]

    @pytest.mark.parametrize("alpha,sided,warns", CASES)
    def test_t_q_test(self, alpha, sided, warns):
        values = np.tile([0.3, -1.2, 0.8, 2.0], 4)  # q = 16
        out = t_q_test(groups(values), alpha, sided)
        assert (out.warning is not None) == warns

    @pytest.mark.parametrize("alpha,sided,warns", CASES)
    def test_grouped_hybrid_test(self, alpha, sided, warns):
        s = random_walk_sample(6, 150, with_levels=True)
        out = grouped_hybrid_test(s, "odd", 16, alpha, sided)
        assert (out.warning is not None) == warns

    @pytest.mark.parametrize("sided", SIDES)
    def test_bound_depends_on_q(self, sided):
        # Ibragimov & Mueller (2010, Theorem 1): two-sided 0.1 up to q = 14
        half = 1 if sided == "two" else 0.5
        for q in range(2, 15):
            assert inference.group_t_validity_bound(q, sided) == 0.1 * half
        for q in (15, 16, 60, 1000):
            assert inference.group_t_validity_bound(q, sided) == 0.08326 * half

    @pytest.mark.parametrize("sided", ["two", "right"])
    def test_bound_keeps_the_extreme_point_size(self, sided):
        for q in range(2, 61):
            alpha = inference.group_t_validity_bound(q, sided)
            assert extreme_point_size(q, alpha, sided) <= alpha * (1 + 1e-9), q
        # just past the theorem's edge, 0.1 is no longer kept
        assert extreme_point_size(15, 0.1, "two") > 0.1
        assert extreme_point_size(15, 0.05, "right") > 0.05

    @pytest.mark.parametrize("q,sided,alpha,warns", [
        (14, "two", 0.1, False),
        (14, "two", 0.1001, True),
        (15, "two", 0.1, True),
        (12, "right", 0.05, False),
        (16, "right", 0.05, True),
        (16, "left", 0.04163, False),
    ])
    def test_warning_names_q_and_bound(self, q, sided, alpha, warns):
        out = t_q_test(groups(np.linspace(-1.0, 2.0, q)), alpha, sided)
        assert (out.warning is not None) == warns
        if warns:
            bound = inference.group_t_validity_bound(q, sided)
            assert f"q={q} groups" in out.warning and f"alpha <= {bound:g}" in out.warning


class TestJointTests:
    def test_bonferroni_rule(self):
        # engineered marginals: strong first predictor, weak second
        gen = np.random.default_rng(12)
        T = 400
        x1 = np.cumsum(gen.standard_normal(T))
        x2 = np.cumsum(gen.standard_normal(T))
        y = 0.8 * x1 + gen.standard_normal(T) * 3.0
        joint = bonferroni_joint(sample(y, np.column_stack([x1, x2])), alpha=0.05)
        p = [o.p_value for o in joint.per_predictor]
        assert joint.joint_reject == (min(p) <= 0.025)

    def test_bonferroni_k1_equals_hybrid(self):
        s = random_walk_sample(13, 120)
        joint = bonferroni_joint(s, alpha=0.05)
        single = hybrid_test(s, alpha=0.05)
        assert joint.joint_reject == single.reject
        assert joint.per_predictor[0].p_value == pytest.approx(single.p_value, abs=1e-15)

    def test_bonferroni_rows_equal_univariate_tests(self):
        # each row of the K-row batch is bit for bit the hybrid test on that
        # predictor's own sample, over K 1-4 and T 10-700
        gen = np.random.default_rng(22)
        for i in range(300):
            k, T = 1 + i % 4, int(gen.integers(10, 701))
            X = np.cumsum(gen.standard_normal((T, k)), axis=0) if i % 2 else gen.standard_normal((T, k))
            y = 0.1 * X[:, 0] + gen.standard_normal(T)
            alpha, sided = (0.01, 0.05, 0.2)[i % 3], SIDES[i % len(SIDES)]
            joint = bonferroni_joint(RegressionSample(y=y, x_lag=X), alpha, sided)
            singles = tuple(hybrid_test(RegressionSample(y=y, x_lag=X[:, j]), alpha, sided) for j in range(k))
            assert joint.per_predictor == singles
            assert joint.joint_reject == (min(o.p_value for o in singles) <= alpha / k)

    def test_bonferroni_permutes_with_predictors(self):
        gen = np.random.default_rng(23)
        X = np.cumsum(gen.standard_normal((300, 3)), axis=0)
        y = 0.03 * X[:, 2] + gen.standard_normal(300)
        joint = bonferroni_joint(RegressionSample(y=y, x_lag=X), 0.05)
        for order in itertools.permutations(range(3)):
            permuted = bonferroni_joint(RegressionSample(y=y, x_lag=X[:, list(order)]), 0.05)
            assert permuted.per_predictor == tuple(joint.per_predictor[j] for j in order)
            assert permuted.joint_reject == joint.joint_reject

    def test_bonferroni_raises_first_degenerate_predictor(self):
        gen = np.random.default_rng(24)
        x = gen.standard_normal(50)
        zero, y = np.zeros(50), 2.0 * x  # a zero denominator; a perfect fit
        with pytest.raises(DegenerateDenominatorError):
            bonferroni_joint(RegressionSample(y=y, x_lag=np.column_stack([zero, x])), 0.05)
        with pytest.raises(DegenerateVarianceError):
            bonferroni_joint(RegressionSample(y=y, x_lag=np.column_stack([x, zero])), 0.05)

    def test_multi_predictor_batch_rows_are_contiguous(self):
        X = np.arange(30.0).reshape(10, 3)
        batch = RegressionSample(y=np.ones(10), x_lag=X).batch
        assert batch.x_lag.flags.c_contiguous and not batch.x_lag.flags.writeable
        np.testing.assert_array_equal(batch.x_lag, X.T)

    def test_wald_equals_tau_squared_at_k1(self):
        s = random_walk_sample(16, 300)
        tau = hybrid_test(s, 0.05).statistic
        joint = wald_joint(s, 0.05)
        assert joint.wald_stat == pytest.approx(tau**2, abs=1e-10)

    def test_wald_invariant_to_predictor_order(self):
        gen = np.random.default_rng(21)
        X = np.cumsum(gen.standard_normal((300, 3)), axis=0)
        y = 0.05 * X[:, 1] + gen.standard_normal(300)
        stat = wald_joint(RegressionSample(y=y, x_lag=X), 0.05).wald_stat
        for order in itertools.permutations(range(3)):
            permuted = RegressionSample(y=y, x_lag=X[:, list(order)])
            assert wald_joint(permuted, 0.05).wald_stat == pytest.approx(stat, rel=1e-12, abs=0)

    def test_wald_identical_signs_singular(self):
        gen = np.random.default_rng(17)
        x1 = np.abs(gen.standard_normal(100)) + 0.1
        X = np.column_stack([x1, 2 * x1])  # identical sign columns
        y = gen.standard_normal(100)
        with pytest.raises(SignDegeneracyError, match="identical sign"):
            wald_joint(RegressionSample(y=y, x_lag=X), 0.05)

    def test_wald_checks_its_level_first(self):
        # as bonferroni_joint and the univariate tests do: the level is
        # rejected before the sample's sign patterns are looked at
        gen = np.random.default_rng(17)
        x1 = np.abs(gen.standard_normal(100)) + 0.1
        sample = RegressionSample(y=gen.standard_normal(100), x_lag=np.column_stack([x1, 2 * x1]))
        for joint in (wald_joint, bonferroni_joint):
            with pytest.raises(DomainError, match="^alpha must be in"):
                joint(sample, 2.0)

    def test_wald_nonnegative_and_right_tailed(self):
        gen = np.random.default_rng(18)
        X = np.cumsum(gen.standard_normal((250, 2)), axis=0)
        y = gen.standard_normal(250)
        joint = wald_joint(RegressionSample(y=y, x_lag=X), 0.05)
        assert joint.wald_stat >= 0.0
        assert joint.per_predictor[0].sided == "right"
        assert joint.per_predictor[0].ref_dist.df == 2

    def test_wald_decides_by_its_chi_square_p_value(self):
        gen = np.random.default_rng(19)
        X = np.cumsum(gen.standard_normal((250, 2)), axis=0)
        y = 0.02 * X[:, 0] + gen.standard_normal(250)
        joint = wald_joint(RegressionSample(y=y, x_lag=X), 0.05)
        (marginal,) = joint.per_predictor
        assert marginal.p_value == chi_square_sf(joint.wald_stat, 2)
        assert marginal.reject == joint.joint_reject == (marginal.p_value <= 0.05)
        with pytest.raises(DomainError):
            wald_joint(RegressionSample(y=y, x_lag=X), 1.0)


class TestNullDistributionChecks:
    """Monte Carlo checks of the null references (all seeded)."""

    def test_hybrid_null_is_standard_normal(self):
        from scipy import stats as scipy_stats

        from cauchypred import RngStream

        n_reps, T = 5000, 2000
        values = np.empty(n_reps)
        for rep in range(n_reps):
            gen = RngStream(314, rep).generator()
            x = np.cumsum(gen.standard_normal(T))  # independent of the errors
            y = 1.7 * gen.standard_normal(T)
            values[rep] = hybrid_test(sample(y, x), 0.05).statistic
        assert scipy_stats.kstest(values, "norm").statistic < 0.025

    def test_wald_k2_null_size(self):
        from cauchypred import RngStream, recursive_demean

        n_reps, T = 2000, 2000
        rejections = 0
        for rep in range(n_reps):
            gen = RngStream(2718, rep).generator()
            walks = np.cumsum(gen.standard_normal((T, 2)), axis=0)
            # recursive recentering guarantees sign variation per predictor
            X = np.column_stack([recursive_demean(walks[:, 0]), recursive_demean(walks[:, 1])])
            y = gen.standard_normal(T)
            joint = wald_joint(RegressionSample(y=y, x_lag=X), 0.05)
            rejections += joint.joint_reject
        rate = rejections / n_reps
        assert rate == pytest.approx(0.05, abs=0.015)

    def test_intercept_only_response_centers_at_zero(self):
        from cauchypred import RngStream

        n_reps, T = 400, 200
        stats = np.empty(n_reps)
        for rep in range(n_reps):
            gen = RngStream(99, rep).generator()
            lev = np.concatenate([[0.0], np.cumsum(gen.standard_normal(T))])
            y = 3.0 + gen.standard_normal(T)  # pure intercept plus noise
            s = sample(y, lev[:-1], lev=lev)
            stats[rep] = hybrid_test_intercept(s, "even", 0.05).statistic
        assert abs(stats.mean()) < 3.0 / np.sqrt(n_reps) * 3
        assert np.mean(np.abs(stats) > 1.959964) == pytest.approx(0.05, abs=0.03)


def test_decision_consistency_across_tests():
    s = random_walk_sample(19, 240, with_levels=True)
    outcomes = [
        t_q_test(group_gammas(s, 8), 0.05, "two"),
        hybrid_test(s, 0.05, "right"),
        hybrid_test_intercept(s, "even", 0.05, "left"),
        grouped_hybrid_test(s, "odd", 8, 0.05, "two"),
    ]
    for out in outcomes:
        assert out.reject == (out.p_value <= out.alpha)
        assert 0.0 <= out.p_value <= 1.0


def test_signs_enter_only_through_instrument():
    # flipping predictor signs flips the full-sample statistic
    s = random_walk_sample(20, 90)
    a = hybrid_test(s, 0.05).statistic
    flipped = sample(s.y, -s.x_lag)
    b = hybrid_test(flipped, 0.05).statistic
    signs_equal = np.array_equal(sign_conv(-s.x_lag), -sign_conv(s.x_lag))
    if signs_equal:  # true unless some entry is exactly zero
        assert a == pytest.approx(-b, rel=1e-10)


class TestMetamorphic:
    """Invariances the theory promises, checked on simulated discrete samples
    through the same dispatcher the experiment runner uses."""

    @given(
        label=st.sampled_from(["t8", "tau", "tau_e", "tau_o", "t8_tau_e", "t8_tau_o"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kappa=st.sampled_from([0.0, 5.0, 50.0]),
        c=st.floats(min_value=1e-3, max_value=1e3),
        a=st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_response_sign_and_predictor_scale(self, label, seed, kappa, c, a):
        s = simulate_discrete(DgpDiscreteConfig(n_obs=120, kappa_bar=kappa), RngStream(seed))
        spec = parse_method(label)

        def statistic(y=s.y, x_level=s.x_level):
            t = RegressionSample(y=y, x_lag=x_level[:-1], x_level=x_level)
            return evaluate_method(spec, t, 0.05, "two").statistic

        stat = statistic()
        assert statistic(y=-s.y) == -stat
        assert statistic(x_level=c * s.x_level) == pytest.approx(stat, rel=1e-9, abs=0)
        assert statistic(y=c * s.y) == pytest.approx(stat, rel=1e-9, abs=0)
        if spec.parity is not None:  # differencing removes any intercept
            assert statistic(y=s.y + a) == pytest.approx(stat, rel=1e-9, abs=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kappa=st.sampled_from([0.0, 5.0, 50.0]),
        q=st.sampled_from([2, 3, 8, 12]),
        transform=st.one_of(
            st.tuples(st.just("odd power"), st.sampled_from([3, 5, 7, 9])),
            st.tuples(st.just("signed power"), st.floats(min_value=0.1, max_value=10.0)),
            st.tuples(st.just("tan stretch"), st.floats(min_value=0.05, max_value=20.0)),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_sign_preserving_predictor_transform(self, seed, kappa, q, transform):
        # the group t-tests and the hybrid numerator gamma read the predictor
        # only through sign(x) (sign(0) = +1), so any transform of x_level
        # that keeps every sign leaves them bit-identical; the tan stretch
        # makes x heavy-tailed, up to about 1.6e16
        s = simulate_discrete(DgpDiscreteConfig(n_obs=120, kappa_bar=kappa), RngStream(seed))
        kind, p = transform
        x = s.x_level
        if kind == "odd power":
            z = x**p
        elif kind == "signed power":
            z = np.sign(x) * np.abs(x) ** p
        else:
            z = np.tan(np.pi / 2 * np.tanh(x / p))
        assert np.array_equal(z >= 0.0, x >= 0.0)
        samples = [RegressionSample(y=s.y, x_lag=lev[:-1], x_level=lev) for lev in (x, z)]
        for label in (f"t{q}", f"t{q}_tau_e", f"t{q}_tau_o"):
            spec = parse_method(label)
            before, after = (evaluate_method(spec, t, 0.05, "two").statistic for t in samples)
            assert after == before, label
        assert cauchy_estimate(samples[1]).gamma == cauchy_estimate(samples[0]).gamma
        for parity in ("even", "odd"):
            assert diff_cauchy(samples[1], parity).gamma == diff_cauchy(samples[0], parity).gamma

    @pytest.mark.parametrize("label", ["t8", "tau", "tau_o", "t8_tau_o"])
    def test_large_response_inside_the_magnitude_bound(self, label):
        # y * 1e140 at T = 240 is accepted, and no sum of squares overflows
        s = simulate_discrete(DgpDiscreteConfig(n_obs=240, kappa_bar=50.0), RngStream(5))
        spec = parse_method(label)
        scaled = RegressionSample(y=1e140 * s.y, x_lag=s.x_lag, x_level=s.x_level)
        stat = evaluate_method(spec, s, 0.05, "two").statistic
        got = evaluate_method(spec, scaled, 0.05, "two").statistic
        assert got == pytest.approx(stat, rel=1.5e-15, abs=0)


class TestGroupStatisticsInput:
    def test_q_must_match_the_gammas(self):
        # five values under q=3 used to be tested as five groups against t(4)
        with pytest.raises(PartitionError, match="q=3"):
            t_q_test(GroupStatistics(q=3, gammas=np.arange(1.0, 6.0), block_size=1, dropped=0), 0.05)
        with pytest.raises(PartitionError, match="q=3"):
            GroupStatistics(q=3, gammas=np.ones((2, 5)), block_size=1, dropped=0)

    def test_t_q_test_takes_one_sample(self):
        two_samples = GroupStatistics(q=3, gammas=np.arange(6.0).reshape(2, 3), block_size=1, dropped=0)
        with pytest.raises(DomainError, match="gammas must hold one sample's values, got shape \\(2, 3\\)"):
            t_q_test(two_samples, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gammas(self, bad):
        with pytest.raises(DomainError, match="gammas contains non-finite"):
            t_q_test(groups([1.0, bad, 2.0, 0.5]), 0.05)

    @pytest.mark.parametrize("q", [1, 0])
    def test_fewer_than_two_groups(self, q):
        # one group has no spread: rejected where the statistics are made, not in dists
        with pytest.raises(PartitionError, match=f"need q >= 2 groups, got q={q}"):
            GroupStatistics(q=q, gammas=np.ones(q), block_size=1, dropped=0)


class TestIdentityEquality:
    def test_samples_compare_by_identity(self):
        s = random_walk_sample(25, 40)
        twin = RegressionSample(y=s.y, x_lag=s.x_lag)
        assert s == s and not s == twin and s != twin
        assert len({s, twin, s}) == 2

    def test_group_statistics_compare_by_identity(self):
        g, twin = groups([1.0, 2.0, 3.0]), groups([1.0, 2.0, 3.0])
        assert g == g and g != twin
        assert len({g, twin, g}) == 2
