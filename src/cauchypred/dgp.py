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

Both share the volatility models, whose sigma_t path :func:`gen_volatility`
returns: constant (CNST), a late structural break (SB), a two-state
regime-switching chain (RS), and a lognormal stochastic-volatility path
(GBM, continuous design only).  Each runs at the paper's values, the module
constants SIGMA0, SIGMA1, BREAK_FRACTION, LAMBDA_BAR, RS_HIGH_PROB and
OMEGA_BAR.

Determinism contract: a config fixes the model and carries no randomness;
every generator takes its random stream as an argument and consumes it in a
fixed, documented order (volatility first, then the shock channels), so a
config and a stream reproduce the same sample bitwise on any platform.

:func:`simulate_continuous_batch` and :func:`simulate_discrete_batch` build
one sample per stream index as the rows of a
:class:`~cauchypred.estimators.SampleBatch`.  A batch has one model (its
config) and one master seed; each row owns a stream index and may have its
own ``beta`` and ``kappa_bar``.  Each row draws from its own stream in the
documented order, then the moving average, volatility chain,
autoregression (one coefficient per row) and demeaning run over the whole
(R, T) arrays.  The single-sample functions are their batch-of-one
wrappers, so a row of a batch equals its single sample bit for bit.

The batch simulators and :func:`brownian_paths` write every (R, T) array
into a :class:`~cauchypred.estimators.Workspace` with ``out=``: the draws,
sigma_t, the shocks, eta, the levels, ``y`` and ``x_lag``, the RS chain's
work arrays and the AR recursion's time-major steps.  The Monte Carlo
engine passes its own; a call given none makes one, so its result shares
memory with no other call's.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .errors import DomainError
from .estimators import (
    RegressionSample,
    SampleBatch,
    Workspace,
    _recursive_demean,
    partition_consecutive,
)
from .rng import RngStream, check_key, generators

VOL_MODELS = ("CNST", "SB", "RS", "GBM")

# per-step scaling of daily paths used by the stochastic-volatility model
TRADING_DAYS_PER_YEAR = 252

# Most observations a sample may have: far above the paper's designs (1200
# at most), and small enough that one sample's arrays fit in memory.
MAX_N_OBS = 1_000_000

# With fewer rows than this the AR recursion runs row by row on Python
# floats; from it on, one vector step per time point across the rows is
# faster (a step costs about as much as 20 rows of one element each).
AR_ROWS_PER_VECTOR_STEP = 24

# The volatility models' values, fixed as in the paper's simulations.
SIGMA0 = 1.0          # CNST level; SB / RS low state; GBM start
SIGMA1 = 4.0          # SB / RS high state
BREAK_FRACTION = 0.8  # SB switch point as a fraction of the sample
LAMBDA_BAR = 60.0     # RS transition speed
RS_HIGH_PROB = 0.2    # RS long-run weight of the high state
OMEGA_BAR = 9.0       # GBM volatility-of-volatility


def _rs_sigma(u: np.ndarray, ws: Workspace) -> np.ndarray:
    """sigma_t of the two-state chain with time-varying mixing, one path per
    row of ``u``, as ``ws`` scratch; ``u`` is overwritten.

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
    rows, n = u.shape[0], u.shape[-1] - 1
    p = RS_HIGH_PROB
    decay = np.exp(-LAMBDA_BAR * np.arange(n) / n)  # step start as fraction of sample
    step = u[:, 1:]
    sig = ws.scratch(step.shape)
    with ws:
        source = ws.scratch(step.shape, np.intp)
        state = ws.scratch(u.shape, bool)  # the initial state, then "goes high"
        np.less(u[:, :1], p, out=state[:, :1])
        np.less(step, p * (1.0 - decay), out=state[:, 1:])
        settled = np.greater_equal(step, p + (1.0 - p) * decay, out=ws.scratch(step.shape, bool))
        settled |= state[:, 1:]
        # the flat index into `state` of the last settled step at or before
        # each step; the initial state (column 0) counts as settled
        np.multiply(settled, np.arange(1, n + 1), out=source)
        np.maximum.accumulate(source, axis=1, out=source)
        source += np.arange(0, rows * (n + 1), n + 1)[:, None]
        levels = u  # the uniforms are spent: their buffer holds each state's sigma
        levels[...] = SIGMA0
        np.copyto(levels, SIGMA1, where=state)
        np.take(levels.reshape(-1), source, out=sig, mode="clip")
    return sig


def _volatility_draws(model: str, n_steps: int) -> Optional[tuple[str, int]]:
    """The generator method and count of the draws a model takes first from
    each stream (uniforms for RS, normals for GBM), or None."""
    if model == "RS":
        return "random", n_steps + 1
    if model == "GBM":
        return "standard_normal", n_steps
    return None


def _volatility(
    model: str, n_steps: int, total_years: float, draws: Optional[np.ndarray], ws: Workspace
) -> np.ndarray:
    """sigma_t of each path: (R, n_steps) from the (R, .) draws of RS and
    GBM, as ``ws`` scratch (RS overwrites its uniforms), and one (n_steps,)
    row shared by every path for CNST and SB."""
    if model == "CNST":
        return np.full(n_steps, SIGMA0)
    if model == "SB":
        frac = np.arange(1, n_steps + 1) / n_steps
        return np.where(frac >= BREAK_FRACTION, SIGMA1, SIGMA0).astype(float)
    if model == "RS":
        return _rs_sigma(draws, ws)
    # GBM: exact log-step; sigma used at each step is the value at its start,
    # so the path stays adapted to the shock history.
    n_daily = max(int(round(total_years * TRADING_DAYS_PER_YEAR)), n_steps)
    om2 = OMEGA_BAR**2
    drift_total = 0.5 * (om2 - om2 * om2) / n_daily  # includes the Ito correction
    sd_total = om2 / np.sqrt(n_daily)
    log_sig2 = ws.scratch(draws.shape)
    log_sig2[:, 0] = np.log(SIGMA0**2)
    log_inc = np.multiply(sd_total / np.sqrt(n_steps), draws[:, :-1], out=log_sig2[:, 1:])
    log_inc += drift_total / n_steps
    np.cumsum(log_inc, axis=-1, out=log_inc)
    log_sig2 *= 0.5
    return np.exp(log_sig2, out=log_sig2)


def gen_volatility(
    model: str, n_steps: int, total_years: float, gen: np.random.Generator
) -> np.ndarray:
    """sigma_t over n_steps observations spanning total_years, as an
    (n_steps,) array.

    CNST is flat at SIGMA0.  SB switches to SIGMA1 at the first observation
    whose sample fraction t/n reaches BREAK_FRACTION (weak inequality).  RS
    follows the two-state chain above.  GBM evolves log sigma^2 as an exact
    lognormal random walk whose drift and diffusion are anchored to the
    daily-step count of the horizon, so the path's law does not depend on
    the observation frequency.  RS takes n_steps + 1 uniforms from ``gen``,
    GBM n_steps normals, and CNST and SB none.
    """
    if model not in VOL_MODELS:
        raise DomainError(f"unknown volatility model {model!r}, expected one of {VOL_MODELS}")
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    spec = _volatility_draws(model, n_steps)
    draws = None if spec is None else getattr(gen, spec[0])(spec[1])[None]
    sigma = _volatility(model, n_steps, total_years, draws, Workspace())
    return sigma if draws is None else sigma[0]


# what a value must be for each (item) type of a config field
_KINDS = {float: (numbers.Real, "number"), int: (numbers.Integral, "nonnegative integer"), str: (str, "string")}


@functools.cache
def _field_types(cls) -> tuple:
    """Each field's name, type (a tuple's item type), and whether it is a tuple or Optional."""
    return tuple(
        (name, get_args(hint)[0] if get_args(hint) else hint, get_origin(hint) is tuple, type(None) in get_args(hint))
        for name, hint in get_type_hints(cls).items()
    )


def _accepts(typ: type, v) -> bool:
    # the exact type skips the abstract-class check, the slow part
    of_kind = type(v) is typ or isinstance(v, _KINDS[typ][0]) and not isinstance(v, bool)
    return of_kind and not (typ is int and v < 0)


def typed_fields(config, error: type) -> None:
    """Check each field of a frozen dataclass against its type hint, then
    store it converted to that type (a list to a tuple, an int in a float
    field to a float, a numpy scalar to a Python one).  The first field that
    is of no accepted type, or is a non-finite float, raises ``error``
    naming it; a bool is a number in no field."""
    for name, typ, listed, optional in _field_types(type(config)):
        value = getattr(config, name)
        if listed:
            if not isinstance(value, (list, tuple)) or not value or not all(_accepts(typ, v) for v in value):
                raise error(f"{name} must be a nonempty list of {_KINDS[typ][1]}s")
            value = tuple(map(typ, value))
        elif not (optional and value is None):
            if not _accepts(typ, value):
                raise error(f"{name} must be a {_KINDS[typ][1]}")
            value = typ(value)
            if typ is float and not math.isfinite(value):
                raise error(f"{name} must be finite, got {value!r}")
        object.__setattr__(config, name, value)


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
    jump_intensity: float = 0.0
    jump_sd: float = 0.0
    rho_vw: float = -0.98
    rho_wz: float = -0.4

    def __post_init__(self) -> None:
        typed_fields(self, DomainError)
        if self.years <= 0 or self.delta <= 0:
            raise DomainError("years and delta must be positive")
        # the first test also keeps years / delta finite for n_obs to round it
        if self.years / self.delta > MAX_N_OBS + 1 or self.n_obs > MAX_N_OBS:
            raise DomainError(
                f"years / delta must give at most MAX_N_OBS = {MAX_N_OBS} observations, "
                f"got years={self.years!r} with delta={self.delta!r}"
            )
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
    rho: float = -0.98
    endogeneity: str = "v"  # correlate the error with "v" shocks or with "eta"

    def __post_init__(self) -> None:
        typed_fields(self, DomainError)
        if self.n_obs < 8:
            raise DomainError("sample is too short")
        if self.n_obs > MAX_N_OBS:
            raise DomainError(f"n_obs must be at most MAX_N_OBS = {MAX_N_OBS}, got {self.n_obs}")
        if self.kappa_bar < 0:
            raise DomainError("kappa_bar must be nonnegative")
        if self.slope_scale not in ("per_sample", "raw"):
            raise DomainError("slope_scale must be 'per_sample' or 'raw'")
        ma_weights(self.ma_order)  # raises on an order it has no weights for
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


def _ma_filter(v_full: np.ndarray, weights: np.ndarray, n: int, ws: Workspace) -> np.ndarray:
    """eta_t = sum_j w_j v_{t-j} for t = 1..n along the last axis, with
    len(weights) burn-in draws, as ``ws`` scratch."""
    order = weights.shape[0]
    shape = v_full.shape[:-1] + (n,)
    eta = ws.scratch(shape)
    eta[...] = 0.0
    with ws:
        term = ws.scratch(shape)
        for j in range(1, order + 1):
            eta += np.multiply(weights[j - 1], v_full[..., order - j : order - j + n], out=term)
    return eta


def _ar_row(innovations: list, coefficient: float) -> list:
    path = []
    prev = 0.0
    for u in innovations:
        prev = coefficient * prev + u
        path.append(prev)
    return path


def _ar_path(innovations: np.ndarray, coefficients, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """x_t = c * x_{t-1} + innovations_t with x_0 = 0, along the last axis,
    where c is the path's entry of ``coefficients`` (broadcast over the
    leading axes: one number for every path, or one per path).

    The paths are written into ``out`` (an (R, T) array may be a strided
    view).  Every step rounds the product, then the sum, as the IIR filter
    this replaced did, so both loop orders give the same paths bit for bit.
    The vector step runs over ``ws`` scratch that holds the innovations
    time-major, so each step is contiguous.  When every c is 1 (a unit
    root), the recursion is a running sum, taken as one cumsum.
    """
    n = innovations.shape[-1]
    rows = innovations.reshape(-1, n)
    coef = np.broadcast_to(np.asarray(coefficients, dtype=float), innovations.shape[:-1]).reshape(-1)
    paths = out.reshape(-1, n)
    if (coef == 1.0).all():
        np.copyto(paths, rows)
        paths[:, 0] += 0.0  # the loop's first step, 0.0 + u, turns -0 into +0
        np.cumsum(paths, axis=-1, out=paths)
        return out
    if rows.shape[0] < AR_ROWS_PER_VECTOR_STEP:
        paths[...] = [_ar_row(row, c) for row, c in zip(rows.tolist(), coef.tolist())]
        return out
    with ws:
        steps = ws.scratch((n, rows.shape[0]))
        np.copyto(steps, rows.T)
        carried = ws.scratch(coef.shape)
        prev = 0.0
        multiply, add = np.multiply, np.add
        for cur in steps:
            add(cur, multiply(coef, prev, carried), cur)  # positional out: less call overhead
            prev = cur
        np.copyto(paths, steps.T)
    return out


def _rows(config, master_seed: int, stream_indices, beta, kappa_bar):
    """A batch's stream indices as ints and each row's beta and kappa_bar
    as arrays (None: the config's own in every row), after checking each
    input once: the seed, the indices, and each distinct (beta, kappa_bar)
    pair other than the config's own, by building its config."""
    check_key("master_seed", master_seed)
    indices = stream_indices
    if not isinstance(indices, np.ndarray):
        # key by key: numpy infers float64 for a list mixing ints at and above 2**63
        indices = np.asarray(indices, dtype=object)
        for value in indices.flat:
            check_key("stream_indices", value)
        indices = indices.astype(np.uint64)
    if indices.ndim != 1 or indices.size == 0 or indices.dtype.kind not in "iu" or indices.min() < 0:
        raise DomainError(
            "stream_indices must be a nonempty 1-D array of unsigned 64-bit integers (any integer dtype, "
            f"not bool), got {indices.dtype} of shape {indices.shape}"
        )
    indices = indices.tolist()
    rows = []
    for name, given in (("beta", beta), ("kappa_bar", kappa_bar)):
        values = np.full(len(indices), getattr(config, name), dtype=float) if given is None else np.asarray(given, dtype=float)
        if values.shape != (len(indices),):
            raise DomainError(f"{name} must hold one value per stream index ({len(indices)}), got shape {values.shape}")
        rows.append(values)
    for b, k in set(zip(rows[0].tolist(), rows[1].tolist())) - {(config.beta, config.kappa_bar)}:
        replace(config, beta=b, kappa_bar=k)
    return indices, rows[0], rows[1]


def _correlate(
    rho: float, anchor: np.ndarray, fresh: np.ndarray, out: np.ndarray, ws: Workspace
) -> np.ndarray:
    """rho * anchor + sqrt(1 - rho^2) * fresh, written into ``out`` (which
    may be ``fresh``)."""
    np.multiply(fresh, np.sqrt(1.0 - rho**2), out=out)
    with ws:
        out += np.multiply(rho, anchor, out=ws.scratch(out.shape))
    return out


def simulate_continuous_batch(
    config: DgpContinuousConfig, master_seed: int, stream_indices, beta=None, kappa_bar=None,
    workspace: Optional[Workspace] = None,
) -> SampleBatch:
    """One replication of the no-intercept design per stream index, as the
    rows of a batch: row r is ``simulate_continuous(config, RngStream(master_seed,
    stream_indices[r]))`` with the row's beta and kappa_bar (None: the config's).
    Every (R, T) array, the batch's included, is one of ``workspace``'s."""
    indices, beta, kappa = _rows(config, master_seed, stream_indices, beta, kappa_bar)
    ws = Workspace() if workspace is None else workspace
    n, reps = config.n_obs, len(indices)
    x_lag, y = ws.array("x", (reps, n)), ws.array("y", (reps, n))
    gbm = config.vol_model == "GBM"
    jumps = config.jump_intensity > 0
    vol = _volatility_draws(config.vol_model, n)
    # an explosive AR path (kappa_bar far above 2 n_obs) or a huge beta gives inf or
    # nan without a numpy warning; the batch then rejects it as non-finite
    with ws, np.errstate(over="ignore", invalid="ignore"):
        vol_draws = None if vol is None else ws.scratch((reps, vol[1]))
        v_full = ws.scratch((reps, n + 2))
        e_w = ws.scratch((reps, n))
        e_v = ws.scratch((reps, n)) if gbm else None
        counts = ws.scratch((reps, n)) if jumps else None
        sizes = ws.scratch((reps, n)) if jumps else None
        for r, gen in enumerate(generators(master_seed, indices)):
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
        sig = _volatility(config.vol_model, n, config.years, vol_draws, ws)
        # each shock channel is built in place of the draws it comes from
        if gbm:
            w = _correlate(config.rho_wz, vol_draws, e_w, e_w, ws)
            _correlate(config.rho_vw, w, e_v, v_full[:, 2:], ws)
        else:
            w = _correlate(config.rho_vw, v_full[:, 2:], e_w, e_w, ws)
        if jumps:
            jump = np.sqrt(counts, out=counts)
            jump *= config.jump_sd
            jump *= sizes
            w += jump
        eta = _ma_filter(v_full, ma_weights(2), n, ws)
        eta *= sig
        x_raw = ws.scratch((reps, n))  # x_0 .. x_{n-1}
        x_raw[:, 0] = 0.0
        _ar_path(eta[:, :-1], 1.0 - kappa / config.years * config.delta, x_raw[:, 1:], ws)
        _recursive_demean(x_raw, out=x_lag)
        np.multiply(beta[:, None], x_lag, out=y)
        w *= sig
        y += w
    return SampleBatch(y=y, x_lag=x_lag, workspace=ws)


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
    batch = simulate_continuous_batch(config, stream.master_seed, [stream.stream_index])
    return RegressionSample(y=batch.y[0], x_lag=batch.x_lag[0])


def simulate_discrete_batch(
    config: DgpDiscreteConfig, master_seed: int, stream_indices, beta=None, kappa_bar=None,
    workspace: Optional[Workspace] = None,
) -> SampleBatch:
    """One replication of the intercept-experiment design per stream index,
    as the rows of a batch: row r is ``simulate_discrete(config, RngStream(master_seed,
    stream_indices[r]))`` with the row's beta and kappa_bar (None: the config's).
    Every (R, T) array, the batch's included, is one of ``workspace``'s."""
    indices, beta, kappa = _rows(config, master_seed, stream_indices, beta, kappa_bar)
    ws = Workspace() if workspace is None else workspace
    n, reps, order = config.n_obs, len(indices), config.ma_order
    x_level, y = ws.array("x", (reps, n + 1)), ws.array("y", (reps, n))  # x_0 .. x_n
    vol = _volatility_draws(config.vol_model, n)
    # an explosive AR path (kappa_bar far above 2 n_obs) or a huge beta gives inf or
    # nan without a numpy warning; the batch then rejects it as non-finite
    with ws, np.errstate(over="ignore", invalid="ignore"):
        vol_draws = None if vol is None else ws.scratch((reps, vol[1]))
        v_full = ws.scratch((reps, n + order))
        e = ws.scratch((reps, n))
        for r, gen in enumerate(generators(master_seed, indices)):
            if vol is not None:
                getattr(gen, vol[0])(out=vol_draws[r])
            gen.standard_normal(out=v_full[r])
            gen.standard_normal(out=e[r])
        sig = _volatility(config.vol_model, n, float(n), vol_draws, ws)
        eta = _ma_filter(v_full, ma_weights(order), n, ws)
        anchor = v_full[:, order:] if config.endogeneity == "v" else eta
        eps = _correlate(config.rho, anchor, e, e, ws)
        eta *= sig
        x_level[:, 0] = 0.0
        _ar_path(eta, 1.0 - kappa / n, x_level[:, 1:], ws)
        slope = beta / n if config.slope_scale == "per_sample" else beta
        np.multiply(slope[:, None], x_level[:, :-1], out=y)
        eps *= sig
        y += eps
    return SampleBatch(y=y, x_lag=x_level[:, :-1], x_level=x_level, workspace=ws)


def simulate_discrete(config: DgpDiscreteConfig, stream: RngStream) -> RegressionSample:
    """One replication of the intercept-experiment design.

    Draw order: volatility, then the v shocks (with ma_order burn-in draws),
    then the error channel.  The error correlates at rho with the
    contemporaneous v shock by default, or with the MA-filtered eta
    innovation when ``endogeneity="eta"``.  The effective slope is
    beta / n_obs under the default localization.
    """
    batch = simulate_discrete_batch(config, stream.master_seed, [stream.stream_index])
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
    return _integral_blocks(np.abs(np.asarray(path, dtype=float)), q)


def _integral_blocks(a: np.ndarray, q: int) -> BrownianAbsFunctionals:
    """:func:`abs_integral_blocks` of paths whose |path| ``a`` is already taken."""
    n = a.shape[-1]
    if n < 2 * max(q, 2):
        raise DomainError("path too short for the requested partition")
    blocks, _ = partition_consecutive(a, q)
    full = a.sum(axis=-1) / n
    return BrownianAbsFunctionals(
        full=float(full) if full.ndim == 0 else full, blocks=blocks.sum(axis=-1) / n
    )


def brownian_paths(
    gen: np.random.Generator,
    count: int,
    n_steps: int,
    demean: bool = False,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """``count`` paths of left-endpoint values of a standard Brownian motion
    on [0, 1], one per row, drawn from ``gen`` path after path.

    With ``demean=True`` the running mean of each path is subtracted, the
    same recursive recentering applied to predictors.  The normals, the
    path and its running mean are ``workspace`` arrays.
    """
    if n_steps < 100:
        raise DomainError("need at least 100 steps")
    ws = Workspace() if workspace is None else workspace
    z = gen.standard_normal(out=ws.array("brownian.normals", (count, n_steps)))
    path = ws.array("brownian.path", (count, n_steps))
    path[:, 0] = 0.0
    w = np.cumsum(z[:, :-1], axis=-1, out=path[:, 1:])
    w /= np.sqrt(n_steps)
    # the normals are spent: their buffer takes the demeaned path
    return _recursive_demean(path, out=z) if demean else path


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
