"""Robust sign-instrument inference for predictive regressions.

The package tests whether a lagged, possibly highly persistent or
heavy-tailed predictor forecasts a return-like series, using estimators
that instrument the predictor with its sign.  It ships the group
t-statistic test, the hybrid (sign-numerator over OLS-residual scale)
test, intercept-robust first-differenced variants, joint tests for several
predictors, the Monte Carlo engine that reproduces the size/power
experiments, and a small CLI.
"""

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
from .dists import chi_square_sf, std_normal, student_t
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
from .experiments import (
    CellKey,
    CellResult,
    D2Result,
    ExperimentGrid,
    McTable,
    MethodSpec,
    d2_study,
    default_d2_threshold,
    evaluate_batch,
    parse_method,
    run_cell,
    run_grid,
)
from .inference import (
    BatchOutcomes,
    JointTestOutcome,
    ReferenceDistribution,
    TestOutcome,
    bonferroni_joint,
    grouped_hybrid_test,
    hybrid_test,
    hybrid_test_intercept,
    t_q_test,
    wald_joint,
)
from .rng import RngStream, correlated_normal_arrays, draw_correlated_normals, substream_index
