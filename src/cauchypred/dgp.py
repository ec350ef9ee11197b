"""Data generators for the Monte Carlo experiments.

Two designs are provided.  Both are local-to-unity autoregressions for the
predictor with endogenous, possibly persistently-heteroskedastic errors;
they differ in how the slope is scaled and which test family they feed.

* :func:`simulate_continuous` generates the no-intercept design observed at
  a fixed number of points per year (monthly by default).  The predictor is
  driven by a two-term moving average of unit normals, recursively demeaned
  before entering the sample, and the response loads on the demeaned
  predictor directly.  The slope is per observation.
* :func:`simulate_discrete` generates the intercept-experiment design with
  MA(2) or MA(4) predictor innovations and a slope that is localized by the
  sample size (beta / T) by default.

Both share the volatility models in :func:`gen_volatility`: constant (CNST),
a late structural break (SB), a two-state regime-switching chain (RS), and a
lognormal stochastic-volatility path (GBM, continuous design only).

Determinism contract: a config fixes the model and carries no randomness;
every generator takes its random stream as an argument and consumes it in a
fixed, documented order (volatility first, then the shock channels), so a
config and a stream reproduce the same sample bitwise on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .estimators import RegressionSample, recursive_demean
from .rng import RngStream

VOL_MODELS = ("CNST", "SB", "RS", "GBM")

# per-step scaling of daily paths used by the stochastic-volatility model
TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class VolParams:
    """Parameters of the volatility models (only the relevant ones apply)."""

    sigma0: float = 1.0
    sigma1: float = 4.0          # SB / RS high state
    break_fraction: float = 0.8  # SB switch point as a fraction of the sample
    lambda_bar: float = 60.0     # RS transition speed
    omega_bar: float = 9.0       # GBM volatility-of-volatility
    rs_high_prob: float = 0.2    # RS long-run weight of the high state

    def validate(self) -> None:
        if self.sigma0 <= 0 or self.sigma1 <= 0:
            raise DomainError("volatility levels must be positive")
        if not 0.0 < self.break_fraction <= 1.0:
            raise DomainError("break_fraction must be in (0, 1]")
        if self.lambda_bar < 0 or self.omega_bar <= 0:
            raise DomainError("lambda_bar must be >= 0 and omega_bar > 0")
        if not 0.0 <= self.rs_high_prob <= 1.0:
            raise DomainError("rs_high_prob must be a probability")


@dataclass(frozen=True)
class VolatilityPath:
    """Realized sigma_t sequence plus the shocks that drove it (GBM only)."""

    sigma: np.ndarray
    z_increments: Optional[np.ndarray] = None


def _rs_states(gen: np.random.Generator, n: int, params: VolParams) -> np.ndarray:
    """Two-state chain with time-varying mixing.

    The transition matrix starts at the identity and relaxes toward rows
    equal to the invariant law (1 - p, p) at rate lambda_bar in sample
    fraction; the initial state is drawn from that invariant law.  One
    uniform is consumed for the initial state and one per step.
    """
    p_high = params.rs_high_prob
    u = gen.random(n + 1)
    states = np.empty(n, dtype=np.int64)
    state = 1 if u[0] < p_high else 0
    lam = params.lambda_bar
    for i in range(n):
        decay = np.exp(-lam * i / n)  # step's start time as fraction of sample
        if state == 0:
            p_to_high = p_high * (1.0 - decay)
        else:
            p_to_high = p_high + (1.0 - p_high) * decay
        state = 1 if u[i + 1] < p_to_high else 0
        states[i] = state
    return states


def gen_volatility(
    model: str,
    params: VolParams,
    n_steps: int,
    total_years: float,
    stream: RngStream | np.random.Generator,
) -> VolatilityPath:
    """Volatility path over n_steps observations spanning total_years.

    CNST is flat at sigma0.  SB switches to sigma1 at the first observation
    whose sample fraction t/n reaches ``break_fraction`` (weak inequality).
    RS follows the two-state chain above.  GBM evolves log sigma^2 as an
    exact lognormal random walk whose drift and diffusion are anchored to
    the daily-step count of the horizon, so the path's law does not depend
    on the observation frequency; its shocks are returned so the caller can
    correlate the error channel with them.
    """
    if model not in VOL_MODELS:
        raise DomainError(f"unknown volatility model {model!r}, expected one of {VOL_MODELS}")
    params.validate()
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    gen = stream.generator() if isinstance(stream, RngStream) else stream
    if model == "CNST":
        return VolatilityPath(np.full(n_steps, params.sigma0))
    if model == "SB":
        frac = np.arange(1, n_steps + 1) / n_steps
        sigma = np.where(frac >= params.break_fraction, params.sigma1, params.sigma0)
        return VolatilityPath(sigma.astype(float))
    if model == "RS":
        states = _rs_states(gen, n_steps, params)
        sigma = np.where(states == 1, params.sigma1, params.sigma0).astype(float)
        return VolatilityPath(sigma)
    # GBM: exact log-step; sigma used at each step is the value at its start,
    # so the path stays adapted to the shock history.
    n_daily = max(int(round(total_years * TRADING_DAYS_PER_YEAR)), n_steps)
    om2 = params.omega_bar**2
    drift_total = 0.5 * (om2 - om2 * om2) / n_daily  # includes the Ito correction
    sd_total = om2 / np.sqrt(n_daily)
    z = gen.standard_normal(n_steps)
    log_inc = drift_total / n_steps + sd_total / np.sqrt(n_steps) * z
    log_sig2 = np.concatenate([[np.log(params.sigma0**2)], np.cumsum(log_inc)[:-1]])
    return VolatilityPath(np.exp(0.5 * log_sig2), z_increments=z)


@dataclass(frozen=True)
class DgpContinuousConfig:
    """No-intercept design observed at delta-spaced points over `years`.

    Compound-Poisson jumps with ``jump_intensity`` expected jumps per year
    and normal sizes of standard deviation ``jump_sd`` are added to the
    error channel when the intensity is positive.
    """

    years: float
    delta: float = 1.0 / 12.0
    kappa_bar: float = 0.0
    beta: float = 0.0
    vol_model: str = "CNST"
    vol_params: VolParams = field(default_factory=VolParams)
    jump_intensity: float = 0.0
    jump_sd: float = 0.0
    rho_vw: float = -0.98
    rho_wz: float = -0.4

    def validate(self) -> None:
        if self.years <= 0 or self.delta <= 0:
            raise DomainError("years and delta must be positive")
        if self.n_obs < 4:
            raise DomainError("sample is too short")
        if self.kappa_bar < 0:
            raise DomainError("kappa_bar must be nonnegative")
        for rho in (self.rho_vw, self.rho_wz):
            if not -1.0 <= rho <= 1.0:
                raise DomainError("correlations must lie in [-1, 1]")
        if self.jump_intensity < 0 or self.jump_sd < 0:
            raise DomainError("jump_intensity and jump_sd must be nonnegative")
        self.vol_params.validate()
        if self.vol_model not in VOL_MODELS:
            raise DomainError(f"unknown volatility model {self.vol_model!r}")

    @property
    def n_obs(self) -> int:
        return int(round(self.years / self.delta))


@dataclass(frozen=True)
class DgpDiscreteConfig:
    """Intercept-experiment design with MA(q) predictor innovations."""

    n_obs: int
    kappa_bar: float = 0.0
    beta: float = 0.0
    slope_scale: str = "per_sample"  # effective slope beta / n_obs; "raw" uses beta
    ma_order: int = 2
    vol_model: str = "CNST"
    vol_params: VolParams = field(default_factory=VolParams)
    rho: float = -0.98
    endogeneity: str = "v"  # correlate the error with "v" shocks or with "eta"

    def validate(self) -> None:
        if self.n_obs < 8:
            raise DomainError("sample is too short")
        if self.kappa_bar < 0:
            raise DomainError("kappa_bar must be nonnegative")
        if self.slope_scale not in ("per_sample", "raw"):
            raise DomainError("slope_scale must be 'per_sample' or 'raw'")
        if self.ma_order not in (2, 4):
            raise DomainError("ma_order must be 2 or 4")
        if self.vol_model == "GBM":
            raise DomainError("the GBM volatility model is not part of this design")
        if self.vol_model not in VOL_MODELS:
            raise DomainError(f"unknown volatility model {self.vol_model!r}")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError("rho must lie in [-1, 1]")
        if self.endogeneity not in ("v", "eta"):
            raise DomainError("endogeneity must be 'v' or 'eta'")
        self.vol_params.validate()


def ma_weights(order: int) -> np.ndarray:
    """Unit-variance moving-average weights used for predictor innovations."""
    if order == 2:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    if order == 4:
        return np.array([0.5, 0.5, 0.5, 0.5])
    raise DomainError("ma_order must be 2 or 4")


def _ma_filter(v_full: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """eta_t = sum_j w_j v_{t-j} for t = 1..n, with len(weights) burn-in draws."""
    order = weights.shape[0]
    eta = np.zeros(n)
    for j in range(1, order + 1):
        eta += weights[j - 1] * v_full[order - j : order - j + n]
    return eta


def _ar_path(innovations: np.ndarray, coefficient: float) -> np.ndarray:
    """x_t = coefficient * x_{t-1} + innovations_t with x_0 = 0."""
    path = []
    prev = 0.0
    for u in innovations.tolist():
        prev = coefficient * prev + u
        path.append(prev)
    return np.array(path)


def simulate_continuous(config: DgpContinuousConfig, stream: RngStream) -> RegressionSample:
    """One replication of the no-intercept design.

    Draw order: volatility shocks, then (for GBM) the error and predictor
    channels built from them, otherwise the predictor channel followed by
    the error channel, then jump counts and sizes when jump_intensity > 0.

    The predictor is a local-to-unity AR(1) whose innovations are the
    two-term moving average of the v shocks scaled by sigma_t; the series
    entering the sample is recursively demeaned.  The response is
    beta times the demeaned lagged predictor plus sigma_t times the error
    shock (plus jumps).  The error shock correlates with the contemporaneous
    v shock at rho_vw, and under GBM also with the volatility shock at
    rho_wz.
    """
    config.validate()
    n = config.n_obs
    gen = stream.generator()
    vol = gen_volatility(config.vol_model, config.vol_params, n, config.years, gen)
    sig = vol.sigma
    if vol.z_increments is not None:
        # order: error channel from the vol shocks, then the v channel
        e_w = gen.standard_normal(n)
        e_v = gen.standard_normal(n)
        v_burn = gen.standard_normal(2)
        w = config.rho_wz * vol.z_increments + np.sqrt(1.0 - config.rho_wz**2) * e_w
        v_t = config.rho_vw * w + np.sqrt(1.0 - config.rho_vw**2) * e_v
        v_full = np.concatenate([v_burn, v_t])
    else:
        v_full = gen.standard_normal(n + 2)
        e_w = gen.standard_normal(n)
        w = config.rho_vw * v_full[2:] + np.sqrt(1.0 - config.rho_vw**2) * e_w
    shocks = w
    if config.jump_intensity > 0:
        counts = gen.poisson(config.jump_intensity * config.delta, n)
        sizes = gen.standard_normal(n)
        shocks = w + config.jump_sd * np.sqrt(counts) * sizes
    eta = _ma_filter(v_full, ma_weights(2), n)
    ar = 1.0 - config.kappa_bar / config.years * config.delta
    x_path = _ar_path(sig * eta, ar)
    x_lag_raw = np.concatenate([[0.0], x_path[:-1]])  # x_0 .. x_{n-1}
    x_lag = recursive_demean(x_lag_raw)
    y = config.beta * x_lag + sig * shocks
    return RegressionSample(y=y, x_lag=x_lag)


def simulate_discrete(config: DgpDiscreteConfig, stream: RngStream) -> RegressionSample:
    """One replication of the intercept-experiment design.

    Draw order: volatility, then the v shocks (with ma_order burn-in draws),
    then the error channel.  The error correlates at rho with the
    contemporaneous v shock by default, or with the MA-filtered eta
    innovation when ``endogeneity="eta"``.  The effective slope is
    beta / n_obs under the default localization.
    """
    config.validate()
    n = config.n_obs
    gen = stream.generator()
    vol = gen_volatility(config.vol_model, config.vol_params, n, float(n), gen)
    sig = vol.sigma
    order = config.ma_order
    v_full = gen.standard_normal(n + order)
    e = gen.standard_normal(n)
    eta = _ma_filter(v_full, ma_weights(order), n)
    anchor = v_full[order:] if config.endogeneity == "v" else eta
    eps = config.rho * anchor + np.sqrt(1.0 - config.rho**2) * e
    ar = 1.0 - config.kappa_bar / n
    x_path = _ar_path(sig * eta, ar)
    x_level = np.concatenate([[0.0], x_path])  # x_0 .. x_n
    slope = config.beta / n if config.slope_scale == "per_sample" else config.beta
    y = slope * x_level[:-1] + sig * eps
    return RegressionSample(y=y, x_lag=x_level[:-1], x_level=x_level)


@dataclass(frozen=True)
class BrownianAbsFunctionals:
    """Left-endpoint Riemann sums of |path| over [0,1] and its subdivisions."""

    full: float
    blocks: np.ndarray  # q block integrals


def abs_integral_blocks(path: np.ndarray, q: int) -> BrownianAbsFunctionals:
    """Riemann block sums of |path| for an injected path of left endpoints."""
    n = path.shape[0]
    if n < 2 * max(q, 2):
        raise DomainError("path too short for the requested partition")
    a = np.abs(np.asarray(path, dtype=float))
    block = n // q
    blocks = a[: q * block].reshape(q, block).sum(axis=1) / n
    return BrownianAbsFunctionals(full=float(a.sum() / n), blocks=blocks)


def brownian_path(gen: np.random.Generator, n_steps: int, demean: bool = False) -> np.ndarray:
    """Left-endpoint values of a standard Brownian motion on [0, 1].

    With ``demean=True`` the running mean of the path is subtracted, the
    same recursive recentering applied to predictors.
    """
    if n_steps < 100:
        raise DomainError("need at least 100 steps")
    z = gen.standard_normal(n_steps)
    w = np.cumsum(z) / np.sqrt(n_steps)
    path = np.concatenate([[0.0], w[:-1]])
    if demean:
        path = recursive_demean(path)
    return path


def gen_brownian_abs_functionals(
    n_steps: int,
    stream: RngStream | np.random.Generator,
    q: int = 2,
    demean: bool = False,
) -> BrownianAbsFunctionals:
    """Draw one Brownian path and return its absolute-value block integrals."""
    gen = stream.generator() if isinstance(stream, RngStream) else stream
    return abs_integral_blocks(brownian_path(gen, n_steps, demean=demean), q)


def d_statistic(functionals: BrownianAbsFunctionals) -> float:
    """Limit ratio of the group t-statistic under a drifting alternative.

    For q blocks: full * sqrt(q (q-1) / sum_j (full - q * block_j)^2).
    At q = 2 this reduces to full / |block_1 - block_2|.
    """
    blocks = functionals.blocks
    q = blocks.shape[0]
    dev = functionals.full - q * blocks
    denom = float(np.sum(dev * dev))
    if denom == 0.0:
        raise DomainError("degenerate block integrals")
    return float(functionals.full * np.sqrt(q * (q - 1) / denom))
