"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
realized numbers.  Heavy null panels are computed once per session and
shared.  All runs are fully seeded, so every number below is reproducible
bitwise; tolerances are fixed here, not tuned at runtime.

Reference rejection rates for the persistent-volatility size panel (in
percent, 5% two-sided tests, T = 20 years, mean-reversion 5) are the
externally tabulated values this implementation is required to reproduce
within two percentage points:

    SB:  t8 4.1   t12 4.6   t16 4.7   tau 5.5
    RS:  t8 4.4   t12 4.8   t16 4.6   tau 4.7
    GBM: t8 3.8   t12 4.3   t16 4.2   tau 4.8
"""

import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cauchypred import (
    DgpDiscreteConfig,
    ExperimentGrid,
    RegressionSample,
    cauchy_estimate,
    d2_study,
    default_d2_threshold,
    hybrid_test,
    hybrid_test_intercept,
    run_grid,
    sign_conv,
    simulate_discrete,
    student_t_two_sided_cv,
    t_q_test,
    wald_joint,
)
from cauchypred.estimators import GroupStatistics
from cauchypred.experiments import check_workers
from cauchypred.rng import RngStream, substream_index

MASTER_SEED = 20260809
ALPHA = 0.05
N_REPS = 2000
T_METHODS = ("t8", "t12", "t16")
ALL_METHODS = T_METHODS + ("tau",)

PV_REFERENCE = {
    "SB": {"t8": 4.1, "t12": 4.6, "t16": 4.7, "tau": 5.5},
    "RS": {"t8": 4.4, "t12": 4.8, "t16": 4.6, "tau": 4.7},
    "GBM": {"t8": 3.8, "t12": 4.3, "t16": 4.2, "tau": 4.8},
}

NULL_MC_SE = np.sqrt(ALPHA * (1 - ALPHA) / N_REPS)  # 0.4873%


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def cnst_panel():
    grid = ExperimentGrid(
        dgp_kind="continuous",
        beta_values=(0.0,),
        kappa_values=(0.0, 5.0, 20.0),
        T_values=(5.0, 20.0),
        vol_models=("CNST",),
        methods=ALL_METHODS,
        n_reps=N_REPS,
        alpha=ALPHA,
        sided="two",
        master_seed=MASTER_SEED,
    )
    return run_grid(grid)


@pytest.fixture(scope="session")
def pv_panel():
    grid = ExperimentGrid(
        dgp_kind="continuous",
        beta_values=(0.0,),
        kappa_values=(5.0,),
        T_values=(20.0,),
        vol_models=("SB", "RS", "GBM"),
        methods=ALL_METHODS,
        n_reps=N_REPS,
        alpha=ALPHA,
        sided="two",
        master_seed=MASTER_SEED,
    )
    return run_grid(grid)


@pytest.fixture(scope="session")
def discrete_panel():
    tables = {}
    for ma in (2, 4):
        grid = ExperimentGrid(
            dgp_kind="discrete",
            beta_values=(0.0,),
            kappa_values=(0.0, 50.0, 100.0),
            T_values=(240.0,),
            vol_models=("CNST", "SB", "RS"),
            methods=("tau_e", "tau_o", "t8_tau_o", "t12_tau_o", "t16_tau_o"),
            n_reps=N_REPS,
            alpha=ALPHA,
            sided="right",
            ma_order=ma,
            master_seed=MASTER_SEED,
        )
        tables[ma] = run_grid(grid)
    return tables


@pytest.fixture(scope="session")
def d2_criterion():
    """The criterion 1 study at the default worker count (the usable CPUs),
    with its wall time."""
    t0 = time.time()
    result = d2_study(100_000, 1000, master_seed=MASTER_SEED)
    return result, time.time() - t0


def test_criterion_1_two_group_ratio_study(d2_criterion):
    result, elapsed = d2_criterion
    ok_tail = abs(result.tail_prob - 0.15) <= 0.01
    ok_min = 1.0 <= result.min_value <= 1.3
    ok_time = elapsed < 60.0
    report(
        "criterion 1",
        ok_tail and ok_min and ok_time,
        f"P(D2 > {result.threshold:.4f}) = {result.tail_prob:.4f} (target 0.15 +- 0.01), "
        f"min = {result.min_value:.4f} (target [1.0, 1.3]), {elapsed:.1f}s",
    )
    assert ok_tail and ok_min and ok_time


def test_criterion_1_at_any_worker_count(d2_criterion):
    # the 100 chunks dealt into 1, 2 or 3 shares give the same study, bit for bit
    result, _ = d2_criterion
    for workers in sorted({1, 2, 3} - {check_workers(None)}):
        other = d2_study(100_000, 1000, master_seed=MASTER_SEED, workers=workers)
        assert (other.min_value, other.tail_prob, other.mc_se) == (result.min_value, result.tail_prob, result.mc_se)
        assert np.array_equal(other.bin_counts, result.bin_counts)


def test_criterion_2_constant_vol_size(cnst_panel):
    failures = []
    for kappa in (0.0, 5.0, 20.0):
        for T in (5.0, 20.0):
            for method in ALL_METHODS:
                pct = 100 * cnst_panel.frequency(0.0, kappa, T, "CNST", method)
                lo = 3.5 if method == "tau" else 2.5
                if not lo <= pct <= 6.5:
                    failures.append(f"{method}@k={kappa:g},T={T:g}: {pct:.2f}%")
    report(
        "criterion 2",
        not failures,
        "all 24 constant-volatility null cells inside their bands"
        if not failures
        else "out of band: " + "; ".join(failures),
    )
    assert not failures


def test_criterion_3_persistent_vol_size(pv_panel):
    failures = []
    lines = []
    for vol, refs in PV_REFERENCE.items():
        for method, ref in refs.items():
            cell = pv_panel.cells[
                next(
                    k
                    for k in pv_panel.cells
                    if k.vol == vol and k.method == method
                )
            ]
            pct = 100 * cell.frequency
            slack = max(2.0, 300 * cell.mc_se)  # +-2pp, widened to 3 mc se
            lines.append(f"{vol}/{method}: {pct:.2f} (ref {ref})")
            if abs(pct - ref) > slack:
                failures.append(f"{vol}/{method}: {pct:.2f} vs ref {ref} (slack {slack:.2f})")
    report(
        "criterion 3",
        not failures,
        "; ".join(lines) if not failures else "out of band: " + "; ".join(failures),
    )
    assert not failures


def test_criterion_4_group_t_conservative(cnst_panel, pv_panel):
    bound = 100 * (ALPHA + 3 * NULL_MC_SE)
    worst = -1.0
    worst_cell = ""
    for table in (cnst_panel, pv_panel):
        for key, cell in table.cells.items():
            if key.method in T_METHODS:
                pct = 100 * cell.frequency
                if pct > worst:
                    worst, worst_cell = pct, f"{key.method}@{key.vol},k={key.kappa:g},T={key.T:g}"
    ok = worst <= bound
    report(
        "criterion 4",
        ok,
        f"max group-t null rejection {worst:.2f}% at {worst_cell} (bound {bound:.2f}%)",
    )
    assert ok


def test_criterion_5_discrete_size(discrete_panel):
    failures = []
    for ma, table in discrete_panel.items():
        for key, cell in table.cells.items():
            pct = 100 * cell.frequency
            if key.method in ("tau_e", "tau_o"):
                if not 3.5 <= pct <= 6.5:
                    failures.append(f"ma{ma}/{key.vol}/k={key.kappa:g}/{key.method}: {pct:.2f}%")
            else:
                if pct > 6.5:
                    failures.append(f"ma{ma}/{key.vol}/k={key.kappa:g}/{key.method}: {pct:.2f}%")
    n_cells = sum(len(t.cells) for t in discrete_panel.values())
    report(
        "criterion 5",
        not failures,
        f"all {n_cells} discrete null cells inside their bands"
        if not failures
        else "out of band: " + "; ".join(failures),
    )
    assert not failures


@pytest.fixture(scope="session")
def power_tables():
    ramp = run_grid(
        ExperimentGrid(
            dgp_kind="continuous",
            beta_values=(0.0, 0.004, 0.012, 0.02),
            kappa_values=(0.0,),
            T_values=(50.0,),
            vol_models=("CNST",),
            methods=ALL_METHODS,
            n_reps=N_REPS,
            alpha=ALPHA,
            sided="two",
            master_seed=MASTER_SEED,
        )
    )
    strong = run_grid(
        ExperimentGrid(
            dgp_kind="continuous",
            beta_values=(0.02,),
            kappa_values=(0.0,),
            T_values=(100.0,),
            vol_models=("CNST",),
            methods=ALL_METHODS,
            n_reps=N_REPS,
            alpha=ALPHA,
            sided="two",
            master_seed=MASTER_SEED,
        )
    )
    return ramp, strong


def test_criterion_6_power_ordering_and_level(power_tables):
    ramp, strong = power_tables
    betas = (0.0, 0.004, 0.012, 0.02)
    failures = []
    for method in ALL_METHODS:
        cells = [
            ramp.cells[next(k for k in ramp.cells if k.beta == b and k.method == method)]
            for b in betas
        ]
        freqs = [c.frequency for c in cells]
        inversions = 0
        for a, b in zip(range(3), range(1, 4)):
            if freqs[b] < freqs[a]:
                gap = freqs[a] - freqs[b]
                two_se = 2 * np.sqrt(cells[a].mc_se ** 2 + cells[b].mc_se ** 2)
                inversions += 1
                if gap > two_se or inversions > 1:
                    failures.append(
                        f"{method}: non-monotone at beta={betas[b]:g} "
                        f"({100*freqs[a]:.1f} -> {100*freqs[b]:.1f})"
                    )
        top = strong.frequency(0.02, 0.0, 100.0, "CNST", method)
        if not top > 0.95:
            failures.append(f"{method}: power {100*top:.1f}% at the strong-signal cell")
    ramp_txt = "; ".join(
        m + ": " + "/".join(f"{100*ramp.frequency(b, 0.0, 50.0, 'CNST', m):.1f}" for b in betas)
        for m in ALL_METHODS
    )
    report(
        "criterion 6",
        not failures,
        f"power ramps (%) {ramp_txt}; strong-signal cell all > 95%"
        if not failures
        else "; ".join(failures),
    )
    assert not failures


def test_criterion_7_null_distribution_shape():
    n_reps = 5000
    T = 600
    taus = np.empty(n_reps)
    taus_e = np.empty(n_reps)
    taus_o = np.empty(n_reps)
    config = DgpDiscreteConfig(n_obs=T, kappa_bar=0.0, beta=0.0, vol_model="CNST")
    for rep in range(n_reps):
        s = simulate_discrete(config, RngStream(MASTER_SEED, substream_index("ks-null", rep)))
        taus[rep] = hybrid_test(s, ALPHA).statistic
        taus_e[rep] = hybrid_test_intercept(s, "even", ALPHA).statistic
        taus_o[rep] = hybrid_test_intercept(s, "odd", ALPHA).statistic
    distances = {
        name: scipy_stats.kstest(v, "norm").statistic
        for name, v in (("tau", taus), ("tau_e", taus_e), ("tau_o", taus_o))
    }
    ok = all(d < 0.025 for d in distances.values())
    report(
        "criterion 7",
        ok,
        "KS vs standard normal: "
        + ", ".join(f"{k}={v:.4f}" for k, v in distances.items())
        + " (bound 0.025)",
    )
    assert ok


def test_criterion_8_exact_identities():
    t0 = time.time()
    gen = np.random.default_rng(MASTER_SEED)
    # sign-instrument estimate equals the direct IV formula
    for _ in range(1000):
        n = int(gen.integers(2, 25))
        x = gen.standard_normal(n)
        y = gen.standard_normal(n)
        fit = cauchy_estimate(RegressionSample(y=y, x_lag=x))
        direct = np.sum(np.where(x >= 0, 1.0, -1.0) * y) / np.sum(np.abs(x))
        assert abs(fit.beta - direct) <= 1e-12 * max(1.0, abs(direct))
    # Wald equals the squared hybrid statistic for one predictor
    x = np.cumsum(gen.standard_normal(500))
    y = gen.standard_normal(500)
    s = RegressionSample(y=y, x_lag=x)
    tau = hybrid_test(s, ALPHA).statistic
    wald = wald_joint(s, ALPHA).wald_stat
    assert abs(wald - tau * tau) <= 1e-10
    # group t: invariance to common positive scaling, antisymmetry
    gammas = gen.standard_normal(8)
    base = t_q_test(GroupStatistics(8, gammas, 1, 0), ALPHA).statistic
    scaled = t_q_test(GroupStatistics(8, 7.3 * gammas, 1, 0), ALPHA).statistic
    negated = t_q_test(GroupStatistics(8, -gammas, 1, 0), ALPHA).statistic
    assert abs(base - scaled) <= 1e-12 * abs(base)
    assert abs(base + negated) <= 1e-12 * abs(base)
    # sign convention at zero is exercised and positive
    assert sign_conv(0.0) == 1.0
    zero_fit = cauchy_estimate(RegressionSample(y=np.array([5.0, 1.0]), x_lag=np.array([0.0, 1.0])))
    assert zero_fit.beta == pytest.approx(6.0, abs=1e-12)
    # two-sided t critical value at level 0.05 with 2 degrees of freedom
    cv = student_t_two_sided_cv(0.05, 2)
    assert abs(cv - 4.3027) <= 5e-4
    elapsed = time.time() - t0
    report(
        "criterion 8",
        True,
        f"direct-formula match (1000 samples), wald = tau^2, group-t invariances, "
        f"sign(0)=+1, cv(0.05, df=2)={cv:.4f}; {elapsed:.2f}s",
    )
    assert elapsed < 1.0


def test_criterion_9_bitwise_determinism_across_workers():
    grid = ExperimentGrid(
        dgp_kind="discrete",
        beta_values=(0.0, 1.0),
        kappa_values=(0.0, 50.0),
        T_values=(60.0,),
        vol_models=("CNST", "SB"),
        methods=("tau_o", "t8_tau_o"),
        n_reps=60,
        sided="right",
        master_seed=MASTER_SEED,
    )
    serial = run_grid(grid, workers=1).to_csv_text()
    parallel = run_grid(grid, workers=8).to_csv_text()
    ok = serial == parallel
    report(
        "criterion 9",
        ok,
        f"{len(serial.splitlines()) - 1} cells identical bytes across worker counts 1 and 8",
    )
    assert ok


def test_summary_threshold_note():
    # the exceedance study's default threshold is the two-group two-sided
    # critical value at the 5% level
    assert default_d2_threshold() == pytest.approx(
        student_t_two_sided_cv(0.05, 1), abs=1e-12
    )
