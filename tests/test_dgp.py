"""Generator contracts: volatility paths, determinism, moving-average
weights, correlation audits, and the Brownian block functionals."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cauchypred
from cauchypred import (
    BrownianAbsFunctionals,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    DomainError,
    PartitionError,
    RngStream,
    d_statistic,
    gen_brownian_abs_functionals,
    gen_volatility,
    ma_weights,
    simulate_continuous,
    simulate_discrete,
)
from cauchypred.dgp import MAX_N_OBS, VOL_MODELS, _ar_path, _ma_filter, abs_integral_blocks
from cauchypred.estimators import Workspace


def ar_path(innovations, coefficients):
    """The AR paths of ``innovations`` as a new array."""
    return _ar_path(innovations, coefficients, np.empty(innovations.shape), Workspace())


class TestVolatility:
    def test_cnst_flat(self):
        sigma = gen_volatility("CNST", 50, 50.0, RngStream(1).generator())
        assert_allclose(sigma, np.ones(50))

    def test_sb_pattern(self):
        # 10 steps, switch at the first step whose sample fraction t/n
        # reaches 0.8: seven low entries then three high
        sigma = gen_volatility("SB", 10, 10.0, RngStream(1).generator())
        assert_allclose(sigma, [1.0] * 7 + [4.0] * 3)

    def test_rs_no_switch_at_time_zero(self):
        # the mixing matrix starts at the identity, so the first step keeps
        # the initial state regardless of the uniform draw
        for seed in range(40):
            stream = RngStream(seed)
            sigma = gen_volatility("RS", 500, 500.0, stream.generator())
            gen = stream.generator()
            u0 = gen.random(501)[0]
            initial = 4.0 if u0 < 0.2 else 1.0
            assert sigma[0] == initial

    def test_rs_longrun_occupancy(self):
        # pooled high-state share approaches the invariant weight 0.2
        share = []
        for seed in range(60):
            sigma = gen_volatility("RS", 2000, 2000.0, RngStream(77, seed).generator())
            tail = sigma[1000:]
            share.append(np.mean(tail == 4.0))
        assert np.mean(share) == pytest.approx(0.2, abs=0.05)

    def test_gbm_positive_and_finite(self):
        for years in (5, 20, 50):
            gen = RngStream(5).generator()
            sigma = gen_volatility("GBM", 12 * years, float(years), gen)
            assert np.all(sigma > 0)
            assert np.all(np.isfinite(sigma))

    @pytest.mark.parametrize("model", VOL_MODELS)
    def test_float_path_of_n_steps(self, model):
        sigma = gen_volatility(model, 37, 37.0, RngStream(4).generator())
        assert sigma.dtype == np.float64
        assert sigma.shape == (37,)

    @pytest.mark.parametrize(
        "model, method, count",
        [("CNST", "random", 0), ("SB", "random", 0), ("RS", "random", 51), ("GBM", "standard_normal", 50)],
    )
    def test_draw_order(self, model, method, count):
        # the simulators take these draws first from each stream, so the
        # shocks that follow must start where a fresh stream advanced by
        # exactly this many draws does
        gen = RngStream(8, 3).generator()
        gen_volatility(model, 50, 50.0, gen)
        fresh = RngStream(8, 3).generator()
        getattr(fresh, method)(count)
        assert gen.standard_normal() == fresh.standard_normal()

    def test_gbm_starts_at_sigma0(self):
        sigma = gen_volatility("GBM", 240, 20.0, RngStream(6).generator())
        assert sigma[0] == pytest.approx(1.0)

    def test_gbm_frequency_invariant_law(self):
        # total log-variance depends on the horizon, not on the step count
        ends = []
        for n in (240, 960):
            vals = [
                np.log(gen_volatility("GBM", n, 20.0, RngStream(9, i).generator())[-1] ** 2)
                for i in range(400)
            ]
            ends.append(np.std(vals))
        assert ends[0] == pytest.approx(ends[1], rel=0.15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gen_volatility("OU", 10, 10.0, RngStream(1).generator())
        for model in VOL_MODELS:
            with pytest.raises(DomainError):
                gen_volatility(model, 0, 10.0, RngStream(1).generator())


class TestMaWeights:
    def test_order2_unit_variance(self):
        w = ma_weights(2)
        assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)
        assert_allclose(w, [1 / np.sqrt(2)] * 2)

    def test_order4_unit_variance(self):
        w = ma_weights(4)
        assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)
        assert_allclose(w, [0.5] * 4)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            ma_weights(3)


class TestSimulateContinuous:
    def test_deterministic_replay(self):
        config = DgpContinuousConfig(years=5, beta=0.0)
        a = simulate_continuous(config, RngStream(42, 7))
        b = simulate_continuous(config, RngStream(42, 7))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x_lag, b.x_lag)

    def test_n_obs_from_delta(self):
        config = DgpContinuousConfig(years=20)
        assert config.n_obs == 240
        assert simulate_continuous(config, RngStream(0)).n_obs == 240

    def test_demeaned_predictor_starts_at_zero(self):
        s = simulate_continuous(DgpContinuousConfig(years=5), RngStream(3))
        assert s.x_lag[0] == 0.0

    def test_unit_root_when_kappa_zero(self):
        # with kappa 0 the AR coefficient is exactly 1: the pre-demeaning
        # path is a pure cumulative sum of its innovations
        gen = RngStream(8, 0).generator()
        innovations = gen.standard_normal(500)
        path = ar_path(innovations, 1.0)
        assert_allclose(path, np.cumsum(innovations), atol=1e-12)
        # and the mean-reverting path differs
        assert not np.allclose(ar_path(innovations, 0.98), path)

    @pytest.mark.parametrize("coefficient", [1.0, 0.99, 1.0 - 50.0 / 600.0, 0.5])
    @pytest.mark.parametrize("n", [1, 60, 600])
    def test_ar_path_matches_lfilter(self, coefficient, n):
        # the recursion reproduces the IIR filter it replaced, bit for bit
        from scipy import signal

        innovations = RngStream(21, n).generator().standard_normal(n)
        expected = signal.lfilter([1.0], [1.0, -coefficient], innovations)
        assert np.array_equal(ar_path(innovations, coefficient), expected)
        # one coefficient per row, on both sides of AR_ROWS_PER_VECTOR_STEP
        # (24): the row loop below it, the vector step from it on
        others = [1.0, 0.99, 0.5]
        for rows in (3, 23, 24, 25, 30):
            coefficients = np.array(([coefficient] + others) * rows)[:rows]
            block = RngStream(21, n).generator().standard_normal((rows, n))
            paths = ar_path(block, coefficients)
            for row, c, path in zip(block, coefficients, paths):
                assert np.array_equal(path, signal.lfilter([1.0], [1.0, -c], row))
        # strided (rows, n) views in and out, as the simulators pass them,
        # with a workspace reused across calls
        workspace = Workspace()
        for rows in (3, 30):
            coefficients = np.array(([coefficient] + others) * rows)[:rows]
            wide = RngStream(22, n).generator().standard_normal((2 * n, rows)).T[:, ::2]
            out = np.full((rows, n + 1), np.nan)
            for _ in range(2):
                _ar_path(wide, coefficients, out[:, 1:], workspace)
                for row, c, path in zip(wide, coefficients, out[:, 1:]):
                    assert np.array_equal(path, signal.lfilter([1.0], [1.0, -c], row))
            assert np.isnan(out[:, 0]).all()
        # all-unit rows, on both sides of AR_ROWS_PER_VECTOR_STEP, are one
        # running sum: its first step is 0.0 + u, so a leading -0.0 comes
        # out +0.0; a row reaches inf, then nan (where lfilter's state turns
        # nan at the inf, so the reference is the recursion itself)
        def recursion(row):
            path, prev = [], 0.0
            for u in row:
                prev = 1.0 * prev + u
                path.append(prev)
            return path

        for rows in (3, 30):
            block = RngStream(23, n).generator().standard_normal((rows, n))
            block[0, 0] = block[1, :2] = -0.0
            block[-1, n // 2], block[-1, -1] = np.inf, -np.inf
            with np.errstate(invalid="ignore"):  # inf - inf, as in the vector step
                paths = ar_path(block, np.ones(rows))
            expected = np.array([recursion(row) for row in block.tolist()])
            assert np.array_equal(paths[:-1], [signal.lfilter([1.0], [1.0, -1.0], row) for row in block[:-1]])
            assert np.array_equal(paths, expected, equal_nan=True)
            assert np.array_equal(np.signbit(paths), np.signbit(expected))
            assert not np.signbit(paths[:2, 0]).any()
            assert np.isneginf(paths[-1, -1]) if n == 1 else np.isnan(paths[-1, -1])

    def test_import_leaves_out_scipy_signal(self):
        # scipy is a test dependency only: no scipy module, not even the
        # package; the process pool's modules load only when a pool runs
        for module in ("scipy.signal", "scipy", "concurrent.futures.process", "multiprocessing"):
            code = f"import sys, cauchypred; print({module!r} in sys.modules)"
            # the child finds the package where this process found it
            package_root = str(Path(cauchypred.__file__).resolve().parents[1])
            env = {**os.environ, "PYTHONPATH": package_root}
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
            )
            assert out.stdout.strip() == "False", module

    def test_jumps_change_response_only_in_distribution(self):
        base = DgpContinuousConfig(years=5)
        jumpy = DgpContinuousConfig(years=5, jump_intensity=50.0, jump_sd=2.0)
        a = simulate_continuous(base, RngStream(10))
        b = simulate_continuous(jumpy, RngStream(10))
        assert np.array_equal(a.x_lag, b.x_lag)  # jumps live in the error channel
        assert not np.array_equal(a.y, b.y)
        assert np.var(b.y) > np.var(a.y)

    def test_correlation_audit(self):
        # realized correlation between predictor and error shocks across a
        # pooled set of replications stays near the configured value
        vs, ws = [], []
        for rep in range(300):
            config = DgpContinuousConfig(years=20, kappa_bar=0.0)
            gen = RngStream(55, rep).generator()
            v_full = gen.standard_normal(config.n_obs + 2)
            e_w = gen.standard_normal(config.n_obs)
            w = -0.98 * v_full[2:] + np.sqrt(1 - 0.98**2) * e_w
            vs.append(v_full[2:])
            ws.append(w)
        r = np.corrcoef(np.concatenate(vs), np.concatenate(ws))[0, 1]
        assert r == pytest.approx(-0.98, abs=0.02)

    def test_validation(self):
        with pytest.raises(DomainError):
            DgpContinuousConfig(years=-1.0)
        with pytest.raises(DomainError):
            DgpContinuousConfig(years=5, rho_vw=-1.5)
        for knobs in ({"jump_intensity": -1.0}, {"jump_sd": -3.0}):
            with pytest.raises(DomainError, match="jump"):
                DgpContinuousConfig(years=5, **knobs)


def test_n_obs_bound():
    # up to MAX_N_OBS observations, in either design; beyond it, or a
    # horizon whose years / delta overflows, is named before anything is drawn
    assert DgpDiscreteConfig(n_obs=MAX_N_OBS).n_obs == MAX_N_OBS
    assert DgpContinuousConfig(years=MAX_N_OBS / 12).n_obs == MAX_N_OBS
    assert DgpContinuousConfig(years=1.0, delta=1.0 / MAX_N_OBS).n_obs == MAX_N_OBS
    with pytest.raises(DomainError, match="^n_obs must be at most"):
        DgpDiscreteConfig(n_obs=MAX_N_OBS + 1)
    for horizon in ({"years": (MAX_N_OBS + 1) / 12}, {"years": 1e300}, {"years": 1e300, "delta": 1e-300}):
        with pytest.raises(DomainError, match="^years / delta must give at most"):
            DgpContinuousConfig(**horizon)


@pytest.mark.parametrize("design", ["discrete", "continuous"])
def test_explosive_path_fails_without_warnings(design):
    # kappa_bar far above 2 n_obs makes the AR path explode to inf, and a huge
    # beta overflows y: numpy stays quiet (warnings are errors here) and the
    # batch rejects the sample as non-finite
    if design == "discrete":
        make, simulate = (lambda **kw: DgpDiscreteConfig(n_obs=240, **kw)), simulate_discrete
    else:
        make, simulate = (lambda **kw: DgpContinuousConfig(years=20, **kw)), simulate_continuous
    for knobs in ({"kappa_bar": 1e6}, {"kappa_bar": 1e300}, {"kappa_bar": 600.0, "beta": 1e300}):
        with pytest.raises(DomainError, match="^y contains non-finite entries$"):
            simulate(make(**knobs), RngStream(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "config,horizon,names",
    [
        (DgpContinuousConfig, {"years": 20.0},
         ("years", "delta", "kappa_bar", "beta", "jump_intensity", "jump_sd", "rho_vw", "rho_wz")),
        (DgpDiscreteConfig, {"n_obs": 240}, ("kappa_bar", "beta", "rho")),
    ],
    ids=["continuous", "discrete"],
)
def test_non_finite_field_named(config, horizon, names, value):
    # every float field; nan passes a sign or range check, inf overflows n_obs
    assert set(names) == {f.name for f in dataclasses.fields(config) if f.type == "float"}
    for name in names:
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            config(**{**horizon, name: value})


# a value of the wrong type for each kind of field: each fails when the
# config is built, naming its field, not as a TypeError in the simulator
WRONG_TYPED = [
    (DgpDiscreteConfig, "n_obs", 240.0),
    (DgpDiscreteConfig, "n_obs", "240"),
    (DgpDiscreteConfig, "n_obs", True),
    (DgpDiscreteConfig, "ma_order", 2.0),
    (DgpDiscreteConfig, "beta", "0.1"),
    (DgpDiscreteConfig, "rho", True),
    (DgpDiscreteConfig, "kappa_bar", None),
    (DgpContinuousConfig, "years", "20"),
    (DgpContinuousConfig, "jump_intensity", True),
    (DgpDiscreteConfig, "vol_model", 1),
    (DgpContinuousConfig, "vol_model", ["CNST"]),
]


@pytest.mark.parametrize("config,name,value", WRONG_TYPED, ids=lambda v: getattr(v, "__name__", repr(v)))
def test_wrong_type_named_when_built(config, name, value):
    horizon = {"n_obs": 240} if config is DgpDiscreteConfig else {"years": 20.0}
    with pytest.raises(DomainError, match=f"^{name} must be a "):
        config(**{**horizon, name: value})


@pytest.mark.parametrize("design", ["continuous", "discrete"])
def test_accepted_forms_hold_python_types(design):
    # an int in a float field and numpy scalars build, are stored as Python
    # numbers, and simulate the plain-float config's sample bit for bit
    if design == "discrete":
        config, simulate = DgpDiscreteConfig, simulate_discrete
        given = dict(n_obs=np.int64(120), kappa_bar=5, beta=np.float32(0.5), ma_order=np.int64(4), rho=np.float64(-0.5))
        plain = dict(n_obs=120, kappa_bar=5.0, beta=float(np.float32(0.5)), ma_order=4, rho=-0.5)
    else:
        config, simulate = DgpContinuousConfig, simulate_continuous
        given = dict(years=np.int64(10), kappa_bar=np.float32(2.5), beta=1, jump_intensity=np.int64(2), jump_sd=1)
        plain = dict(years=10.0, kappa_bar=2.5, beta=1.0, jump_intensity=2.0, jump_sd=1.0)
    built = config(**given, vol_model=np.str_("RS"))
    assert built == config(**plain, vol_model="RS")
    hints = {f.name: f.type for f in dataclasses.fields(config)}
    for name in [*given, "vol_model"]:
        assert type(getattr(built, name)).__name__ == hints[name], name
    a, b = simulate(built, RngStream(4)), simulate(config(**plain, vol_model="RS"), RngStream(4))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x_lag, b.x_lag)


class TestSimulateDiscrete:
    def test_levels_attached_and_consistent(self):
        s = simulate_discrete(DgpDiscreteConfig(n_obs=240), RngStream(1))
        assert s.x_level is not None
        assert s.x_level.shape[0] == 241
        assert s.x_level[0] == 0.0
        assert np.array_equal(s.x_level[:-1], s.x_lag)

    def test_deterministic_replay(self):
        config = DgpDiscreteConfig(n_obs=120, kappa_bar=50.0, vol_model="SB")
        a = simulate_discrete(config, RngStream(9))
        assert np.array_equal(a.y, simulate_discrete(config, RngStream(9)).y)

    def test_random_walk_variance_growth(self):
        # kappa 0 and a single unit MA weight make x a Gaussian random walk:
        # var(x_t) grows linearly in t (checked at a 10% tolerance)
        n = 400
        weights = np.array([1.0])
        ends = {t: [] for t in (100, 200, 400)}
        for rep in range(400):
            gen = RngStream(13, rep).generator()
            v_full = gen.standard_normal(n + 1)
            eta = _ma_filter(v_full, weights, n, Workspace())
            x = ar_path(eta, 1.0)
            for t in ends:
                ends[t].append(x[t - 1])
        v100, v200, v400 = (np.var(ends[t]) for t in (100, 200, 400))
        assert v200 / v100 == pytest.approx(2.0, rel=0.10)
        assert v400 / v100 == pytest.approx(4.0, rel=0.10)

    def test_gbm_rejected(self):
        with pytest.raises(DomainError):
            DgpDiscreteConfig(n_obs=240, vol_model="GBM")

    def test_slope_scale(self):
        base = DgpDiscreteConfig(n_obs=240, beta=2.4)
        raw = DgpDiscreteConfig(n_obs=240, beta=0.01, slope_scale="raw")
        assert_allclose(
            simulate_discrete(base, RngStream(4)).y,
            simulate_discrete(raw, RngStream(4)).y,
            atol=1e-12,
        )

    def test_endogeneity_switch(self):
        a = simulate_discrete(DgpDiscreteConfig(n_obs=240, endogeneity="v"), RngStream(5))
        b = simulate_discrete(DgpDiscreteConfig(n_obs=240, endogeneity="eta"), RngStream(5))
        assert np.array_equal(a.x_lag, b.x_lag)
        assert not np.array_equal(a.y, b.y)


class TestBrownianFunctionals:
    def test_injected_constant_path(self):
        f = abs_integral_blocks(np.ones(1000), 2)
        assert f.full == pytest.approx(1.0, abs=1e-12)
        assert f.blocks[0] == pytest.approx(0.5, abs=1e-12)
        assert f.blocks[1] == pytest.approx(0.5, abs=1e-12)

    def test_path_left_as_it_was(self):
        path = RngStream(4, 1).generator().standard_normal((3, 1000))
        kept = path.copy()
        f = abs_integral_blocks(path, 2)
        assert np.array_equal(path, kept)
        assert np.array_equal(f.full, np.abs(kept).sum(axis=-1) / 1000)

    def test_one_block_is_a_partition_error(self):
        with pytest.raises(PartitionError):
            abs_integral_blocks(np.ones(1000), 1)

    def test_blocks_sum_to_full(self):
        gen = RngStream(3, 1).generator()
        f = gen_brownian_abs_functionals(1000, gen, q=4)
        assert np.sum(f.blocks) == pytest.approx(f.full, abs=1e-12)

    def test_two_group_ratio_exceeds_one(self):
        for rep in range(200):
            f = gen_brownian_abs_functionals(500, RngStream(14, rep).generator(), q=2, demean=True)
            assert d_statistic(f) > 1.0

    def test_d_statistic_matches_two_group_form(self):
        f = BrownianAbsFunctionals(full=1.0, blocks=np.array([0.7, 0.3]))
        assert d_statistic(f) == pytest.approx(1.0 / 0.4, abs=1e-12)

    def test_demeaned_path_replayable(self):
        a = gen_brownian_abs_functionals(300, RngStream(15, 2).generator(), demean=True)
        b = gen_brownian_abs_functionals(300, RngStream(15, 2).generator(), demean=True)
        assert a.full == b.full

    def test_min_steps(self):
        with pytest.raises(DomainError):
            gen_brownian_abs_functionals(50, RngStream(1).generator())
