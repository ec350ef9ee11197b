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

:func:`simulate_continuous_batch` and :func:`simulate_discrete_batch` build
one sample per stream as the rows of a
:class:`~cauchypred.estimators.SampleBatch`, each from its own config: the
configs of a batch share the sample length, the volatility model and every
other knob, and may differ only in ``beta`` and ``kappa_bar``.  Each row
draws from its own stream in the documented order, then the moving
average, volatility chain, autoregression (one coefficient per row) and
demeaning run over the whole (R, T) arrays.  The single-sample functions
are their batch-of-one wrappers, so a row of a batch equals the sample of
its config and stream bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .estimators import RegressionSample, SampleBatch, _recursive_demean, partition_consecutive
from .rng import RngStream, generators

VOL_MODELS = ("CNST", "SB", "RS", "GBM")

# per-step scaling of daily paths used by the stochastic-volatility model
TRADING_DAYS_PER_YEAR = 252

# With fewer rows than this the AR recursion runs row by row on Python
# floats; from it on, one vector step per time point across the rows is
# faster (a step costs about as much as 20 rows of one element each).
AR_ROWS_PER_VECTOR_STEP = 24


@dataclass(frozen=True)
class VolParams:
    """Parameters of the volatility models (only the relevant ones apply)."""

    sigma0: float = 1.0
    sigma1: float = 4.0          # SB / RS high state
    break_fraction: float = 0.8  # SB switch point as a fraction of the sample
    lambda_bar: float = 60.0     # RS transition speed
    omega_bar: float = 9.0       # GBM volatility-of-volatility
    rs_high_prob: float = 0.2    # RS long-run weight of the high state

    def __post_init__(self) -> None:
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


def _rs_states(u: np.ndarray, params: VolParams) -> np.ndarray:
    """Two-state chain with time-varying mixing, one path per row of ``u``.

    The transition matrix starts at the identity and relaxes toward rows
    equal to the invariant law (1 - p, p) at rate lambda_bar in sample
    fraction; the initial state is drawn from that invariant law.  Row r
    consumes the n + 1 uniforms ``u[r]``: one for the initial state and one
    per step.

    Step i moves to the high state when its uniform is below
    p_to_high = p (1 - decay_i) from the low state, or p + (1 - p) decay_i
    from the high state.  In floating point the first is at most p and the
    second at least p, so a uniform below the first moves high from either
    state, one at or above the second moves low from either, and one in
    between keeps the state: the path is a forward fill of those steps.
    """
    n = u.shape[-1] - 1
    p = params.rs_high_prob
    decay = np.exp(-params.lambda_bar * np.arange(n) / n)  # step start as fraction of sample
    step = u[:, 1:]
    goes_high = step < p * (1.0 - decay)
    settled = goes_high | (step >= p + (1.0 - p) * decay)
    state = np.concatenate([u[:, :1] < p, goes_high], axis=1)
    source = np.where(np.concatenate([np.ones_like(u[:, :1], dtype=bool), settled], axis=1),
                      np.arange(n + 1), 0)
    np.maximum.accumulate(source, axis=1, out=source)
    return np.take_along_axis(state, source, axis=1)[:, 1:]


def _volatility_draws(model: str, n_steps: int) -> Optional[tuple[str, int]]:
    """The generator method and count of the draws a model takes first from
    each stream (uniforms for RS, normals for GBM), or None."""
    if model == "RS":
        return "random", n_steps + 1
    if model == "GBM":
        return "standard_normal", n_steps
    return None


def _volatility(
    model: str, params: VolParams, n_steps: int, total_years: float, draws: Optional[np.ndarray]
) -> np.ndarray:
    """sigma_t of each path: (R, n_steps) from the (R, .) draws of RS and
    GBM, one (n_steps,) row shared by every path for CNST and SB."""
    if model == "CNST":
        return np.full(n_steps, params.sigma0)
    if model == "SB":
        frac = np.arange(1, n_steps + 1) / n_steps
        return np.where(frac >= params.break_fraction, params.sigma1, params.sigma0).astype(float)
    if model == "RS":
        return np.where(_rs_states(draws, params), params.sigma1, params.sigma0).astype(float)
    # GBM: exact log-step; sigma used at each step is the value at its start,
    # so the path stays adapted to the shock history.
    n_daily = max(int(round(total_years * TRADING_DAYS_PER_YEAR)), n_steps)
    om2 = params.omega_bar**2
    drift_total = 0.5 * (om2 - om2 * om2) / n_daily  # includes the Ito correction
    sd_total = om2 / np.sqrt(n_daily)
    log_inc = drift_total / n_steps + sd_total / np.sqrt(n_steps) * draws
    start = np.full(draws.shape[:-1] + (1,), np.log(params.sigma0**2))
    log_sig2 = np.concatenate([start, np.cumsum(log_inc, axis=-1)[..., :-1]], axis=-1)
    return np.exp(0.5 * log_sig2)


def gen_volatility(
    model: str,
    params: VolParams,
    n_steps: int,
    total_years: float,
    gen: np.random.Generator,
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
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    spec = _volatility_draws(model, n_steps)
    draws = None if spec is None else getattr(gen, spec[0])(spec[1])[None]
    sigma = _volatility(model, params, n_steps, total_years, draws)
    if draws is None:
        return VolatilityPath(sigma)
    return VolatilityPath(sigma[0], z_increments=draws[0] if model == "GBM" else None)


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

    def __post_init__(self) -> None:
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

    def __post_init__(self) -> None:
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


def ma_weights(order: int) -> np.ndarray:
    """Unit-variance moving-average weights used for predictor innovations."""
    if order == 2:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    if order == 4:
        return np.array([0.5, 0.5, 0.5, 0.5])
    raise DomainError("ma_order must be 2 or 4")


def _ma_filter(v_full: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """eta_t = sum_j w_j v_{t-j} for t = 1..n along the last axis, with
    len(weights) burn-in draws."""
    order = weights.shape[0]
    eta = np.zeros(v_full.shape[:-1] + (n,))
    for j in range(1, order + 1):
        eta += weights[j - 1] * v_full[..., order - j : order - j + n]
    return eta


def _ar_row(innovations: list, coefficient: float) -> list:
    path = []
    prev = 0.0
    for u in innovations:
        prev = coefficient * prev + u
        path.append(prev)
    return path


def _ar_path(innovations: np.ndarray, coefficients) -> np.ndarray:
    """x_t = c * x_{t-1} + innovations_t with x_0 = 0, along the last axis,
    where c is the path's entry of ``coefficients`` (broadcast over the
    leading axes: one number for every path, or one per path).

    Every step rounds the product, then the sum, as the IIR filter this
    replaced did, so both loop orders give the same paths bit for bit.
    """
    rows = innovations.reshape(-1, innovations.shape[-1])
    coef = np.broadcast_to(np.asarray(coefficients, dtype=float), innovations.shape[:-1]).reshape(-1)
    if rows.shape[0] < AR_ROWS_PER_VECTOR_STEP:
        paths = np.array([_ar_row(row, c) for row, c in zip(rows.tolist(), coef.tolist())])
    else:
        steps = rows.T.copy()  # time on the first axis, so each step is contiguous
        prev = np.zeros(steps.shape[1])
        for t in range(steps.shape[0]):
            steps[t] += coef * prev
            prev = steps[t]
        paths = np.ascontiguousarray(steps.T)
    return paths.reshape(innovations.shape)


def _per_row(configs: Sequence, streams: Sequence[RngStream]):
    """The model the configs of a batch share, and each row's beta and
    kappa_bar as arrays: one config per stream, differing at most in
    those two fields."""
    if len(configs) == 0 or len(configs) != len(streams):
        raise DomainError("a batch needs one config per stream, and at least one")
    distinct = list({id(c): c for c in configs}.values())
    model = distinct[0]
    for config in distinct[1:]:
        if replace(config, beta=model.beta, kappa_bar=model.kappa_bar) != model:
            raise DomainError("the configs of a batch may differ only in beta and kappa_bar")
    beta = np.array([c.beta for c in configs])
    kappa = np.array([c.kappa_bar for c in configs])
    return model, beta, kappa


def simulate_continuous_batch(
    configs: Sequence[DgpContinuousConfig], streams: Sequence[RngStream]
) -> SampleBatch:
    """One replication of the no-intercept design per (config, stream)
    pair, as the rows of a batch; row r is
    ``simulate_continuous(configs[r], streams[r])``."""
    config, beta, kappa = _per_row(configs, streams)
    n, reps = config.n_obs, len(streams)
    gbm = config.vol_model == "GBM"
    jumps = config.jump_intensity > 0
    vol = _volatility_draws(config.vol_model, n)
    vol_draws = None if vol is None else np.empty((reps, vol[1]))
    v_full = np.empty((reps, n + 2))
    e_w = np.empty((reps, n))
    e_v = np.empty((reps, n)) if gbm else None
    counts = np.empty((reps, n)) if jumps else None
    sizes = np.empty((reps, n)) if jumps else None
    for r, gen in enumerate(generators(streams)):
        if vol is not None:
            getattr(gen, vol[0])(out=vol_draws[r])
        if gbm:
            # order: error channel from the vol shocks, then the v channel
            gen.standard_normal(out=e_w[r])
            gen.standard_normal(out=e_v[r])
            gen.standard_normal(out=v_full[r, :2])
        else:
            gen.standard_normal(out=v_full[r])
            gen.standard_normal(out=e_w[r])
        if jumps:
            counts[r] = gen.poisson(config.jump_intensity * config.delta, n)
            gen.standard_normal(out=sizes[r])
    sig = _volatility(config.vol_model, config.vol_params, n, config.years, vol_draws)
    if gbm:
        w = config.rho_wz * vol_draws + np.sqrt(1.0 - config.rho_wz**2) * e_w
        v_full[:, 2:] = config.rho_vw * w + np.sqrt(1.0 - config.rho_vw**2) * e_v
    else:
        w = config.rho_vw * v_full[:, 2:] + np.sqrt(1.0 - config.rho_vw**2) * e_w
    shocks = w
    if jumps:
        shocks = w + config.jump_sd * np.sqrt(counts) * sizes
    eta = _ma_filter(v_full, ma_weights(2), n)
    ar = 1.0 - kappa / config.years * config.delta
    x_path = _ar_path(sig * eta, ar)
    x_lag_raw = np.concatenate([np.zeros((reps, 1)), x_path[:, :-1]], axis=1)  # x_0 .. x_{n-1}
    x_lag = _recursive_demean(x_lag_raw)
    y = beta[:, None] * x_lag + sig * shocks
    return SampleBatch(y=y, x_lag=x_lag)


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
    batch = simulate_continuous_batch([config], [stream])
    return RegressionSample(y=batch.y[0], x_lag=batch.x_lag[0])


def simulate_discrete_batch(
    configs: Sequence[DgpDiscreteConfig], streams: Sequence[RngStream]
) -> SampleBatch:
    """One replication of the intercept-experiment design per (config,
    stream) pair, as the rows of a batch; row r is
    ``simulate_discrete(configs[r], streams[r])``."""
    config, beta, kappa = _per_row(configs, streams)
    n, reps, order = config.n_obs, len(streams), config.ma_order
    vol = _volatility_draws(config.vol_model, n)
    vol_draws = None if vol is None else np.empty((reps, vol[1]))
    v_full = np.empty((reps, n + order))
    e = np.empty((reps, n))
    for r, gen in enumerate(generators(streams)):
        if vol is not None:
            getattr(gen, vol[0])(out=vol_draws[r])
        gen.standard_normal(out=v_full[r])
        gen.standard_normal(out=e[r])
    sig = _volatility(config.vol_model, config.vol_params, n, float(n), vol_draws)
    eta = _ma_filter(v_full, ma_weights(order), n)
    anchor = v_full[:, order:] if config.endogeneity == "v" else eta
    eps = config.rho * anchor + np.sqrt(1.0 - config.rho**2) * e
    ar = 1.0 - kappa / n
    x_path = _ar_path(sig * eta, ar)
    x_level = np.concatenate([np.zeros((reps, 1)), x_path], axis=1)  # x_0 .. x_n
    slope = beta / n if config.slope_scale == "per_sample" else beta
    y = slope[:, None] * x_level[:, :-1] + sig * eps
    return SampleBatch(y=y, x_lag=x_level[:, :-1], x_level=x_level)


def simulate_discrete(config: DgpDiscreteConfig, stream: RngStream) -> RegressionSample:
    """One replication of the intercept-experiment design.

    Draw order: volatility, then the v shocks (with ma_order burn-in draws),
    then the error channel.  The error correlates at rho with the
    contemporaneous v shock by default, or with the MA-filtered eta
    innovation when ``endogeneity="eta"``.  The effective slope is
    beta / n_obs under the default localization.
    """
    batch = simulate_discrete_batch([config], [stream])
    return RegressionSample(y=batch.y[0], x_lag=batch.x_lag[0], x_level=batch.x_level[0])


@dataclass(frozen=True)
class BrownianAbsFunctionals:
    """Left-endpoint Riemann sums of |path| over [0,1] and its subdivisions
    (arrays over the paths when computed for several)."""

    full: float
    blocks: np.ndarray  # q block integrals, on the last axis


def abs_integral_blocks(path: np.ndarray, q: int) -> BrownianAbsFunctionals:
    """Riemann block sums of |path| for an injected path of left endpoints
    (the last axis; leading axes index several paths)."""
    n = path.shape[-1]
    if n < 2 * max(q, 2):
        raise DomainError("path too short for the requested partition")
    a = np.abs(np.asarray(path, dtype=float))
    blocks, _ = partition_consecutive(a, q)
    full = a.sum(axis=-1) / n
    return BrownianAbsFunctionals(
        full=float(full) if full.ndim == 0 else full, blocks=blocks.sum(axis=-1) / n
    )


def brownian_paths(gen: np.random.Generator, count: int, n_steps: int, demean: bool = False) -> np.ndarray:
    """``count`` paths of left-endpoint values of a standard Brownian motion
    on [0, 1], one per row, drawn from ``gen`` path after path.

    With ``demean=True`` the running mean of each path is subtracted, the
    same recursive recentering applied to predictors.
    """
    if n_steps < 100:
        raise DomainError("need at least 100 steps")
    z = gen.standard_normal((count, n_steps))
    w = np.cumsum(z, axis=-1) / np.sqrt(n_steps)
    path = np.concatenate([np.zeros((count, 1)), w[:, :-1]], axis=1)
    return _recursive_demean(path) if demean else path


def brownian_path(gen: np.random.Generator, n_steps: int, demean: bool = False) -> np.ndarray:
    """Left-endpoint values of one standard Brownian motion on [0, 1] (see
    :func:`brownian_paths`)."""
    return brownian_paths(gen, 1, n_steps, demean=demean)[0]


def gen_brownian_abs_functionals(
    n_steps: int, gen: np.random.Generator, q: int = 2, demean: bool = False
) -> BrownianAbsFunctionals:
    """Draw one Brownian path and return its absolute-value block integrals."""
    return abs_integral_blocks(brownian_path(gen, n_steps, demean=demean), q)


def d_statistic(functionals: BrownianAbsFunctionals):
    """Limit ratio of the group t-statistic under a drifting alternative.

    For q blocks: full * sqrt(q (q-1) / sum_j (full - q * block_j)^2).
    At q = 2 this reduces to full / |block_1 - block_2|.  Over several
    paths the result is an array.
    """
    blocks = functionals.blocks
    q = blocks.shape[-1]
    full = np.asarray(functionals.full, dtype=float)
    dev = full[..., None] - q * blocks
    denom = np.sum(dev * dev, axis=-1)
    if np.any(denom == 0.0):
        raise DomainError("degenerate block integrals")
    out = full * np.sqrt(q * (q - 1) / denom)
    return float(out) if out.ndim == 0 else out
