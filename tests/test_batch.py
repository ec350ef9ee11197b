"""The batch engine against its batch-of-one wrappers.

The Monte Carlo engine simulates and tests the replications of every
combination that shares (T, vol) together, as the rows of a
``SampleBatch`` whose rows may differ in beta and kappa; the public
single-sample functions run the same kernels on a batch of one.  These
tests check, replication by replication, that batching changes nothing:
each row of a simulated batch is the sample of its config and stream, and
each method's batch outcome on a row (statistic, p-value, decision, or the
degenerate-statistic error) is what the single-sample test gives on it.
"""

import dataclasses

import numpy as np
import pytest

from cauchypred import (
    DegenerateDenominatorError,
    DegenerateGroupsError,
    DegenerateStatisticError,
    DegenerateVarianceError,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    DomainError,
    RegressionSample,
    RngStream,
    SampleBatch,
    evaluate_batch,
    parse_method,
    simulate_continuous,
    simulate_continuous_batch,
    simulate_discrete,
    simulate_discrete_batch,
)
from cauchypred.experiments import evaluate_method
from cauchypred.inference import DEGENERACIES

LEVEL_METHODS = ("t2", "t8", "t12", "t16", "tau")
ALL_METHODS = LEVEL_METHODS + ("tau_e", "tau_o", "t8_tau_e", "t8_tau_o", "t12_tau_o", "t16_tau_o")
T = 64


def streams(n, seed=31):
    return [RngStream(seed, i) for i in range(n)]


def mixed(config, n):
    """n configs that cycle through four (beta, kappa_bar) pairs of ``config``."""
    pairs = [(config.beta, config.kappa_bar), (0.0, 0.0), (2.5, 100.0), (-1.0, 5.0)]
    return [dataclasses.replace(config, beta=b, kappa_bar=k) for b, k in (pairs * n)[:n]]


@pytest.mark.parametrize("vol", ["CNST", "SB", "RS", "GBM"])
@pytest.mark.parametrize("jumps", [0.0, 3.0])
def test_continuous_rows_are_single_samples(vol, jumps):
    # 30 rows take the vector-step AR loop, 3 the row-by-row one
    config = DgpContinuousConfig(
        years=10, kappa_bar=5.0, beta=0.02, vol_model=vol, jump_intensity=jumps, jump_sd=1.5
    )
    for n in (3, 30):
        keys = streams(n)
        batch = simulate_continuous_batch([config] * n, keys)
        assert batch.x_level is None
        for r, stream in enumerate(keys):
            single = simulate_continuous(config, stream)
            assert np.array_equal(batch.y[r], single.y)
            assert np.array_equal(batch.x_lag[r], single.x_lag)


@pytest.mark.parametrize("vol", ["CNST", "SB", "RS"])
@pytest.mark.parametrize("ma_order,endogeneity", [(2, "v"), (4, "eta")])
def test_discrete_rows_are_single_samples(vol, ma_order, endogeneity):
    config = DgpDiscreteConfig(
        n_obs=120, kappa_bar=50.0, beta=1.0, vol_model=vol, ma_order=ma_order, endogeneity=endogeneity
    )
    for n in (3, 30):
        keys = streams(n)
        batch = simulate_discrete_batch([config] * n, keys)
        for r, stream in enumerate(keys):
            single = simulate_discrete(config, stream)
            assert np.array_equal(batch.y[r], single.y)
            assert np.array_equal(batch.x_level[r], single.x_level)


@pytest.mark.parametrize("vol", ["CNST", "RS", "GBM"])
def test_continuous_rows_mixing_beta_and_kappa(vol):
    # a stacked (T, vol) group: every row follows its own config
    config = DgpContinuousConfig(years=10, kappa_bar=5.0, beta=0.02, vol_model=vol)
    for n in (3, 30):
        keys, configs = streams(n), mixed(config, n)
        batch = simulate_continuous_batch(configs, keys)
        for r, (row_config, stream) in enumerate(zip(configs, keys)):
            single = simulate_continuous(row_config, stream)
            assert np.array_equal(batch.y[r], single.y)
            assert np.array_equal(batch.x_lag[r], single.x_lag)


@pytest.mark.parametrize("vol", ["CNST", "RS"])
@pytest.mark.parametrize("slope_scale", ["per_sample", "raw"])
def test_discrete_rows_mixing_beta_and_kappa(vol, slope_scale):
    config = DgpDiscreteConfig(n_obs=120, kappa_bar=50.0, beta=1.0, vol_model=vol, slope_scale=slope_scale)
    for n in (3, 30):
        keys, configs = streams(n), mixed(config, n)
        batch = simulate_discrete_batch(configs, keys)
        for r, (row_config, stream) in enumerate(zip(configs, keys)):
            single = simulate_discrete(row_config, stream)
            assert np.array_equal(batch.y[r], single.y)
            assert np.array_equal(batch.x_level[r], single.x_level)


def test_batch_configs_may_differ_only_in_beta_and_kappa():
    base = DgpDiscreteConfig(n_obs=60)
    with pytest.raises(DomainError, match="differ only"):
        simulate_discrete_batch([base, dataclasses.replace(base, rho=-0.5)], streams(2))
    with pytest.raises(DomainError, match="differ only"):
        simulate_discrete_batch([base, DgpDiscreteConfig(n_obs=61)], streams(2))
    with pytest.raises(DomainError, match="one config per stream"):
        simulate_discrete_batch([base], streams(2))
    with pytest.raises(DomainError, match="one config per stream"):
        simulate_continuous_batch([], [])


def forced_rows():
    """Samples on which the tests raise each degenerate-statistic error."""
    ramp = np.arange(T + 1, dtype=float) + 1.0
    wave = np.where(np.arange(T + 1) % 3 == 0, -1.0, 2.0) * ramp
    return {
        # flat levels: every differenced instrument denominator is zero
        "flat levels": (np.random.default_rng(1).standard_normal(T), np.full(T + 1, 2.0)),
        # all-zero predictor: the levels denominator is zero too
        "zero predictor": (np.random.default_rng(2).standard_normal(T), np.zeros(T + 1)),
        # constant response: no residual variance after demeaning, and the
        # levels sign terms of a positive predictor are all equal
        "constant response": (np.full(T, 2.5), wave),
        # a response exactly twice the positive lagged predictor: no
        # residual variance without an intercept
        "exact line": (2.0 * ramp[:-1], ramp),
        # equal differences under a positive instrument: equal block sums
        "equal differences": (np.arange(T, dtype=float), ramp),
    }


def simulated_rows(n):
    config = DgpDiscreteConfig(n_obs=T, kappa_bar=50.0, vol_model="RS")
    batch = simulate_discrete_batch([config] * n, streams(n))
    return [(batch.y[r], batch.x_level[r]) for r in range(n)]


def expected(method, y, lev, sided):
    """The single-sample outcome as (statistic, p, reject, error class)."""
    sample = RegressionSample(y=y, x_lag=lev[:-1], x_level=lev)
    try:
        out = evaluate_method(method, sample, 0.05, sided)
    except DegenerateStatisticError as exc:
        return np.nan, np.nan, False, type(exc)
    return out.statistic, out.p_value, out.reject, None


@pytest.mark.parametrize("sided", ["two", "right", "left"])
def test_batch_outcomes_match_single_samples(sided):
    rows = simulated_rows(40) + list(forced_rows().values())
    batch = SampleBatch(
        y=np.stack([y for y, _ in rows]),
        x_lag=np.stack([lev[:-1] for _, lev in rows]),
        x_level=np.stack([lev for _, lev in rows]),
    )
    seen = set()
    for label in ALL_METHODS:
        method = parse_method(label)
        out = evaluate_batch(method, batch, 0.05, sided)
        errors = [None if c == 0 else DEGENERACIES[c - 1][0] for c in out.cause]
        for r, (y, lev) in enumerate(rows):
            stat, p, reject, error = expected(method, y, lev, sided)
            assert errors[r] is error, (label, r)
            assert np.array_equal(out.statistic[r], stat, equal_nan=True), (label, r)
            assert np.array_equal(out.p_value[r], p, equal_nan=True), (label, r)
            assert out.reject[r] == reject, (label, r)
        counts = {e: errors.count(e) for e in set(errors)}
        single = [expected(method, y, lev, sided)[3] for y, lev in rows]
        assert counts == {e: single.count(e) for e in set(single)}
        seen.update(errors)
    # the forced rows exercise every degenerate case a simulated sample can hit
    assert {DegenerateDenominatorError, DegenerateGroupsError, DegenerateVarianceError} <= seen


def test_level_methods_on_a_continuous_batch():
    config = DgpContinuousConfig(years=5, kappa_bar=20.0, beta=0.05, vol_model="GBM")
    keys = streams(30)
    batch = simulate_continuous_batch([config] * 30, keys)
    for label in LEVEL_METHODS:
        method = parse_method(label)
        out = evaluate_batch(method, batch, 0.05, "two")
        for r, stream in enumerate(keys):
            single = evaluate_method(method, simulate_continuous(config, stream), 0.05, "two")
            assert out.statistic[r] == single.statistic
            assert out.p_value[r] == single.p_value
            assert out.reject[r] == single.reject


def test_batch_validation():
    y = np.random.default_rng(3).standard_normal((2, 10))
    lev = np.cumsum(np.random.default_rng(4).standard_normal((2, 11)), axis=1)
    SampleBatch(y=y, x_lag=lev[:, :-1], x_level=lev)
    bad = y.copy()
    bad[1, 4] = np.inf
    with pytest.raises(DomainError, match="non-finite"):
        SampleBatch(y=bad, x_lag=lev[:, :-1])
    with pytest.raises(DomainError, match="one shape"):
        SampleBatch(y=y, x_lag=lev)
    with pytest.raises(DomainError, match="first T columns"):
        SampleBatch(y=y, x_lag=lev[:, 1:], x_level=lev)
    # x_lag is checked in full without levels, and by equality with them
    for fault in (np.nan, np.inf):
        x = lev[:, :-1].copy()
        x[0, 3] = fault
        with pytest.raises(DomainError, match="non-finite"):
            SampleBatch(y=y, x_lag=x)
        with pytest.raises(DomainError, match="first T columns"):
            SampleBatch(y=y, x_lag=x, x_level=lev)
    with pytest.raises(DomainError, match="differenced"):
        evaluate_batch(parse_method("tau_o"), SampleBatch(y=y, x_lag=lev[:, :-1]), 0.05, "two")
