"""Robust sign-instrument inference for predictive regressions.

The package tests whether a lagged, possibly highly persistent or
heavy-tailed predictor forecasts a return-like series, using estimators
that instrument the predictor with its sign.  It ships the group
t-statistic test, the hybrid (sign-numerator over OLS-residual scale)
test, intercept-robust first-differenced variants, joint tests for several
predictors, the Monte Carlo engine that reproduces the size/power
experiments, and a small CLI.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .dgp import (
    BrownianAbsFunctionals,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    gen_brownian_abs_functionals,
    gen_volatility,
    d_statistic,
    ma_weights,
    simulate_continuous,
    simulate_continuous_batch,
    simulate_discrete,
    simulate_discrete_batch,
)
from .dataio import EmpiricalDataset, load_experiment_file, parse_csv
from .dists import chi_square_sf, std_normal, std_normal_two_sided_cv, student_t, student_t_two_sided_cv
from .errors import (
    CauchyPredError,
    CsvFormatError,
    DegenerateDenominatorError,
    DegenerateGroupsError,
    DegenerateStatisticError,
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
    PartitionError,
    SchemaError,
    SignDegeneracyError,
    SingularDesignError,
)
from .estimators import (
    CauchyFit,
    GroupStatistics,
    RegressionSample,
    SampleBatch,
    cauchy_estimate,
    diff_cauchy,
    group_gammas,
    ols_fit,
    omega_hat_sq,
    recursive_demean,
    sign_conv,
)
from .inference import (
    BatchOutcomes,
    JointTestOutcome,
    MethodSpec,
    ReferenceDistribution,
    TestOutcome,
    bonferroni_joint,
    default_d2_threshold,
    evaluate_batch,
    grouped_hybrid_test,
    hybrid_test,
    hybrid_test_intercept,
    parse_method,
    t_q_test,
    wald_joint,
)
from .rng import RngStream, correlated_normal_arrays, draw_correlated_normals, substream_index

# The runner's names: cauchypred.experiments loads on first use, so one test never loads it, and each
# name is looked up there on every access, so one rebound there (a monkeypatch, a tracer) reads the same here.
_RUNNER = ("CellKey", "CellResult", "D2Result", "ExperimentGrid", "McTable", "d2_study", "run_cell", "run_grid")


def __getattr__(name: str):
    if name == "experiments" or name in _RUNNER:
        module = _import_module(".experiments", __name__)  # binds the package's `experiments`
        return module if name == "experiments" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in globals() if not name.startswith("_")} | {"experiments", *_RUNNER})


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
