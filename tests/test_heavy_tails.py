"""The tests' size under heavy-tailed, heteroskedastic nulls, and their
response to the slope on common random numbers.

The predictor is the discrete design's (``simulate_discrete_batch``); the
response is written here, independent of it: y = beta * x_lag + s * eps,
with eps normal, t(3) or Cauchy and s a persistent log-normal scale path.
Each test runs on a ``SampleBatch`` built from those arrays, so no DGP
changes.

Given the predictor, the scale and the mixing variables of eps (t(3) and
the Cauchy are scale mixtures of normals), the group t-test's block values
under beta = 0 are independent normals of unequal variances, so at a level
within :func:`~cauchypred.inference.group_t_validity_bound` its size is at
most alpha (Ibragimov & Mueller 2010, JBES, Theorem 1).  The hybrid tests
have no such theorem; their size is pinned to the same bound as a measured
property.
"""

import functools

import numpy as np
import pytest

from cauchypred import DgpDiscreteConfig, SampleBatch, evaluate_batch, parse_method, simulate_discrete_batch
from cauchypred.inference import group_t_validity_bound

T = 240
ROWS = 5000  # per design: 3 binomial sd of a 5% rate is 0.0092
ALPHA = 0.05
KAPPAS = (0.0, 50.0)
VOLS = ("CNST", "RS")
ERRORS = {
    "normal": lambda gen, shape: gen.standard_normal(shape),
    "t3": lambda gen, shape: gen.standard_t(3, shape),
    "cauchy": lambda gen, shape: gen.standard_cauchy(shape),
}


@functools.cache
def predictor(kappa: float, vol: str) -> np.ndarray:
    """x_0 .. x_T of ROWS replications of the discrete design (read-only)."""
    config = DgpDiscreteConfig(n_obs=T, kappa_bar=kappa, vol_model=vol)
    x_level = simulate_discrete_batch(config, 2010, range(ROWS)).x_level.copy()
    x_level.flags.writeable = False
    return x_level


@functools.cache
def log_normal_scale(phi=0.98) -> np.ndarray:
    """exp(h) for ROWS paths of a stationary AR(1) h of unit variance and
    persistence phi (read-only; every design shares it)."""
    gen = np.random.default_rng(1)
    h = np.empty((ROWS, T))
    h[:, 0] = gen.standard_normal(ROWS)
    shocks = np.sqrt(1.0 - phi**2) * gen.standard_normal((ROWS, T))
    for t in range(1, T):
        h[:, t] = phi * h[:, t - 1] + shocks[:, t]
    scale = np.exp(h)
    scale.flags.writeable = False
    return scale


def null_errors(kappa, vol, error, rows=ROWS) -> np.ndarray:
    """s * eps for one design, drawn independently of its predictor."""
    gen = np.random.default_rng((KAPPAS.index(kappa), VOLS.index(vol), list(ERRORS).index(error)))
    return log_normal_scale()[:rows] * ERRORS[error](gen, (rows, T))


def batch(x_level, y) -> SampleBatch:
    return SampleBatch(y=y, x_lag=x_level[:, :-1], x_level=x_level)


def rejection_rate(label, sample_batch) -> float:
    outcomes = evaluate_batch(parse_method(label), sample_batch, ALPHA, "two")
    assert not outcomes.cause.any()  # continuous errors leave no statistic undefined
    return float(outcomes.reject.mean())


SIZE_BOUND = ALPHA + 3 * np.sqrt(ALPHA * (1 - ALPHA) / ROWS)
DESIGNS = [(k, v, e) for k in KAPPAS for v in VOLS for e in ERRORS]


@pytest.fixture(scope="module", params=DESIGNS, ids=lambda d: f"kappa{d[0]:g}-{d[1]}-{d[2]}")
def null_rates(request):
    """Two-sided 5% rejection rates of every method on one null design."""
    kappa, vol, error = request.param
    nulls = batch(predictor(kappa, vol), null_errors(kappa, vol, error))
    return {label: rejection_rate(label, nulls) for label in ("t8", "t16", "t8_tau_o", "tau", "tau_o")}


@pytest.mark.parametrize("label", ["t8", "t16", "t8_tau_o"])
def test_group_t_size_is_a_theorem(null_rates, label):
    assert ALPHA <= group_t_validity_bound(parse_method(label).q, "two")
    assert null_rates[label] <= SIZE_BOUND


@pytest.mark.parametrize("label", ["tau", "tau_o"])
def test_hybrid_size_is_pinned(null_rates, label):
    # measured at T = 240: 0.044-0.056 under normal and t(3) errors, 0.017-0.023 under Cauchy ones
    assert null_rates[label] <= SIZE_BOUND


def noise_free_slope(x_level, parity, omega_sq) -> np.ndarray:
    """d stat / d beta of each row's hybrid statistic, from the predictor and
    the errors' omega_hat^2: the instrument-weighted sum of the regressor
    terms over sqrt(terms * c * omega_hat^2), with c = 2 for differenced
    errors."""
    if parity is None:
        x = x_level[:, :-1]
        return np.abs(x).sum(axis=1) / np.sqrt(x.shape[1] * omega_sq)
    start = ("even", "odd").index(parity)
    pairs = (x_level.shape[1] - 1 - start) // 2
    first = x_level[:, start : start + 2 * pairs : 2]
    second = x_level[:, start + 1 : start + 2 * pairs : 2]
    instrument = np.where(first >= 0.0, 1.0, -1.0)  # sign(0) = +1
    return np.abs((instrument * (second - first)).sum(axis=1)) / np.sqrt(pairs * 2.0 * omega_sq)


@pytest.mark.parametrize("error", ["normal", "cauchy"])
@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("label", ["tau", "tau_e", "tau_o"])
def test_hybrid_affine_in_beta(label, kappa, error):
    # common random numbers: the errors are fixed and only beta moves, so
    # the OLS residuals, and omega_hat^2 with them, do not move
    rows = 400
    x_level = predictor(kappa, "RS")[:rows]
    eps = null_errors(kappa, "RS", error, rows)
    spec = parse_method(label)
    # the levels statistic moves with beta of order 1 / T, the differenced ones with beta of order 1
    betas = np.linspace(-10.0, 10.0, 9) / (T if spec.parity is None else 1)
    stats, rejects = [], []
    for beta in betas:
        sample_batch = batch(x_level, beta * x_level[:, :-1] + eps)
        stats.append(evaluate_batch(spec, sample_batch, ALPHA, "two").statistic)
        rejects.append(evaluate_batch(spec, sample_batch, ALPHA, "right").reject)
    omega_sq, _ = batch(x_level, eps).residual_variance(intercept=spec.parity is not None)
    stats = np.array(stats)
    affine = stats[4] + betas[:, None] * noise_free_slope(x_level, spec.parity, omega_sq)
    assert np.all(np.abs(stats - affine) <= 1e-12 * np.maximum(np.abs(stats), 1.0))
    # a right-sided rejection, once made, stays made as beta grows
    rejects = np.array(rejects, dtype=int)
    assert np.all(np.diff(rejects, axis=0) >= 0)
    assert rejects[0].sum() < rejects[-1].sum()  # some rows do switch
