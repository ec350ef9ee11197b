"""Distribution-function contracts, checked against high-precision oracles.

The oracles are built on mpmath's arbitrary-precision series (30 digits):
the normal cdf via erfc, the t cdf via the regularized incomplete beta, and
the t critical value by bisection on that cdf.  They are independent of the
package's own series.
"""

import math

import mpmath
import numpy as np
import pytest

from cauchypred import (
    DomainError,
    chi_square_sf,
    std_normal,
    std_normal_two_sided_cv,
    student_t,
    student_t_two_sided_cv,
)

mpmath.mp.dps = 30


def oracle_norm_cdf(x: float) -> float:
    return float(0.5 * mpmath.erfc(-x / mpmath.sqrt(2)))


def oracle_t_cdf(x: float, df: int) -> float:
    # F(x) = 1 - I_{df/(df+x^2)}(df/2, 1/2) / 2 for x >= 0, reflected below 0
    z = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + x * x), regularized=True)
    return float(1 - z / 2) if x >= 0 else float(mpmath.mpf(z) / 2)


def oracle_t_lower_tail(x: float, df: int) -> float:
    # P(T <= -|x|) = I_{df/(df+x^2)}(df/2, 1/2) / 2, without the rounding of 1 - z
    z = mpmath.mpf(df) / (df + mpmath.mpf(x) ** 2)
    return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, z, regularized=True) / 2)


def oracle_t_two_sided_cv(alpha: float, df: int) -> float:
    # bisection on the decreasing tail mass 2 (1 - F(c))
    lo, hi = mpmath.mpf("1e-9"), mpmath.mpf(10_000)
    for _ in range(200):
        mid = (lo + hi) / 2
        if 2 * (1 - oracle_t_cdf(float(mid), df)) > alpha:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestStdNormal:
    def test_cdf_at_zero_is_half(self):
        assert std_normal(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("x", [-3.0, -0.7, 0.0, 0.4, 2.5])
    def test_cdf_matches_oracle(self, x):
        assert std_normal(x) == pytest.approx(oracle_norm_cdf(x), abs=1e-12)

    def test_cdf_monotone_on_grid(self):
        grid = np.linspace(-8, 8, 401)
        values = [std_normal(x) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 0.01, 0.05, 0.5, 0.99])
    def test_cv_matches_oracle(self, alpha):
        # P(|Z| > c) = alpha: c = sqrt(2) erfcinv(alpha)
        oracle = float(mpmath.sqrt(2) * mpmath.erfinv(1 - mpmath.mpf(alpha)))
        assert std_normal_two_sided_cv(alpha) == pytest.approx(oracle, rel=1e-13)

    def test_cv_definition_and_domain(self):
        cv = std_normal_two_sided_cv(0.05)
        assert 2 * std_normal(-cv) == pytest.approx(0.05, rel=1e-14)
        with pytest.raises(DomainError):
            std_normal_two_sided_cv(1.0)


class TestStudentT:
    def test_cv_df2(self):
        # oracle: 4.30265272...; the frozen working value is 4.3027
        assert oracle_t_two_sided_cv(0.05, 2) == pytest.approx(4.3027, abs=5e-4)
        assert student_t_two_sided_cv(0.05, 2) == pytest.approx(4.3027, abs=5e-4)

    def test_cv_df7(self):
        # published t-table value 2.3646, cross-checked by the beta oracle
        assert oracle_t_two_sided_cv(0.05, 7) == pytest.approx(2.3646, abs=5e-5)
        assert student_t_two_sided_cv(0.05, 7) == pytest.approx(2.3646, abs=5e-5)

    def test_cdf_symmetry_at_zero(self):
        assert student_t(0.0, 5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("x,df", [(-2.3, 3), (0.5, 1), (1.9, 11), (4.0, 2)])
    def test_cdf_matches_oracle(self, x, df):
        assert student_t(x, df) == pytest.approx(oracle_t_cdf(x, df), abs=1e-12)

    @pytest.mark.parametrize("df", [7, 11, 15])
    def test_tail_relative_accuracy(self, df):
        # the degrees of freedom of t8, t12 and t16; the lower tail, which
        # every p-value uses, holds its relative accuracy out to |x| = 1e4,
        # where it is about 1e-28 (df 7) to 1e-60 (df 15)
        xs = np.concatenate([np.linspace(0.0, 6.0, 61), np.logspace(0.8, 4.0, 40)])
        got = student_t(-xs, df)
        for x, value in zip(xs, got):
            assert value == pytest.approx(oracle_t_lower_tail(x, df), rel=1e-12, abs=0)

    def test_cv_definition(self):
        # P(|T| > cv) = alpha, i.e. 2 (1 - F(cv)) = alpha
        for df in (1, 2, 7, 15):
            cv = student_t_two_sided_cv(0.05, df)
            assert 2 * (1 - student_t(cv, df)) == pytest.approx(0.05, abs=1e-10)

    def test_df_domain(self):
        with pytest.raises(DomainError):
            student_t(0.0, 0)
        with pytest.raises(DomainError):
            student_t(0.5, 2.5)
        with pytest.raises(DomainError):
            student_t_two_sided_cv(0.05, 0)
        with pytest.raises(DomainError):  # the level lies in (0, 1)
            student_t_two_sided_cv(1.5, 2)


class TestChiSquare:
    def test_sf_at_zero(self):
        assert chi_square_sf(0.0, 3) == 1.0

    def test_sf_df2_closed_form(self):
        # exp(-x/2) is exact for two degrees of freedom
        for x in np.linspace(0.0, 30.0, 61):
            assert chi_square_sf(float(x), 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_sf_05_quantile(self):
        assert chi_square_sf(5.9915, 2) == pytest.approx(0.05, abs=1e-4)

    def test_sf_decreasing(self):
        grid = np.linspace(0, 40, 201)
        values = [chi_square_sf(float(x), 4) for x in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)
