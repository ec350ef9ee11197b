"""Monte Carlo experiment runner.

A grid spans (beta, kappa, T, volatility model) x methods.  Every
replication of a (beta, kappa, T, vol) combination owns a dedicated random
stream whose index is a stable hash of those coordinates plus the
replication number, so

* all methods are evaluated on the same simulated samples,
* adding grid points or methods never changes existing cells, and
* results are bitwise identical for any worker count.

Replications that raise a degenerate-statistic error count as
non-rejections and are tallied separately.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import dists
from .dgp import (
    VOL_MODELS,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    gen_brownian_abs_functionals,
    d_statistic,
)
from .dgp import simulate_continuous, simulate_discrete
from .errors import DegenerateStatisticError, DomainError, SchemaError
from .estimators import RegressionSample, group_gammas
from .inference import (
    SIDES,
    TestOutcome,
    grouped_hybrid_test,
    hybrid_test,
    hybrid_test_intercept,
    t_q_test,
)
from .rng import RngStream, substream_index

_METHOD_RE = re.compile(r"^(?:t(?P<q>\d+)|tau)(?:_(?P<parity>[eo]))?$|^t(?P<gq>\d+)_tau_(?P<gparity>[eo])$")


@dataclass(frozen=True)
class MethodSpec:
    """Parsed test identifier.

    Labels: ``t8`` (group t, q=8), ``tau`` (hybrid), ``tau_e``/``tau_o``
    (differenced hybrid by parity), ``t8_tau_o`` (group t over differenced
    numerator blocks).
    """

    kind: str  # "t_q" | "hybrid" | "hybrid_diff" | "grouped_hybrid"
    q: Optional[int] = None
    parity: Optional[str] = None

    @property
    def label(self) -> str:
        if self.kind == "t_q":
            return f"t{self.q}"
        if self.kind == "hybrid":
            return "tau"
        if self.kind == "hybrid_diff":
            return f"tau_{self.parity[0]}"
        return f"t{self.q}_tau_{self.parity[0]}"

    @property
    def needs_levels(self) -> bool:
        return self.kind in ("hybrid_diff", "grouped_hybrid")


def parse_method(label: str) -> MethodSpec:
    m = _METHOD_RE.match(label)
    if m is None:
        raise SchemaError(
            f"unknown method {label!r}; expected forms: t<q>, tau, tau_e, tau_o, t<q>_tau_e, t<q>_tau_o"
        )
    parity = {"e": "even", "o": "odd", None: None}
    if m.group("gq"):
        return MethodSpec("grouped_hybrid", q=int(m.group("gq")), parity=parity[m.group("gparity")])
    if m.group("q"):
        if m.group("parity"):
            raise SchemaError(f"group t-test label {label!r} cannot carry a parity suffix")
        return MethodSpec("t_q", q=int(m.group("q")))
    if m.group("parity"):
        return MethodSpec("hybrid_diff", parity=parity[m.group("parity")])
    return MethodSpec("hybrid")


def evaluate_method(
    method: MethodSpec, sample: RegressionSample, alpha: float, sided: str
) -> TestOutcome:
    """Run the test a method label names on one sample."""
    if method.kind == "t_q":
        return t_q_test(group_gammas(sample, method.q), alpha, sided)
    if method.kind == "hybrid":
        return hybrid_test(sample, alpha, sided)
    if method.kind == "hybrid_diff":
        return hybrid_test_intercept(sample, method.parity, alpha, sided)
    if method.kind == "grouped_hybrid":
        return grouped_hybrid_test(sample, method.parity, method.q, alpha, sided)
    raise DomainError(f"unknown method kind {method.kind!r}")


_DGP_CONFIGS = {"continuous": DgpContinuousConfig, "discrete": DgpDiscreteConfig}


def _only(design: str, name: str):
    """A knob of one design, defaulting to the same-named field of that
    design's DGP config; experiment files of the other design reject it."""
    default = next(f.default for f in fields(_DGP_CONFIGS[design]) if f.name == name)
    return field(default=default, metadata={"design": design})


@dataclass(frozen=True)
class ExperimentGrid:
    """Full parameterization of one experiment table.

    This is also the experiment-file schema (see :mod:`cauchypred.dataio`):
    every field is a key, fields without a default are required, and the
    ``design`` metadata marks the knobs of a single design.
    """

    dgp_kind: str  # "continuous" | "discrete"
    beta_values: tuple[float, ...]
    kappa_values: tuple[float, ...]
    T_values: tuple[float, ...]  # years (continuous) or observations (discrete)
    vol_models: tuple[str, ...]
    methods: tuple[str, ...]
    n_reps: int
    alpha: float = 0.05
    sided: str = "two"
    master_seed: int = field(kw_only=True)  # required; keyword-only to keep its place
    delta: float = _only("continuous", "delta")
    rho_vw: float = _only("continuous", "rho_vw")
    rho_wz: float = _only("continuous", "rho_wz")
    jump_intensity: float = _only("continuous", "jump_intensity")
    jump_sd: float = _only("continuous", "jump_sd")
    ma_order: int = _only("discrete", "ma_order")
    slope_scale: str = _only("discrete", "slope_scale")
    rho: float = _only("discrete", "rho")
    endogeneity: str = _only("discrete", "endogeneity")

    def validate(self) -> None:
        if self.dgp_kind not in ("continuous", "discrete"):
            raise SchemaError(f"dgp_kind must be 'continuous' or 'discrete', got {self.dgp_kind!r}")
        for name in ("beta_values", "kappa_values", "T_values", "vol_models", "methods"):
            if len(getattr(self, name)) == 0:
                raise SchemaError(f"{name} must be nonempty")
        if self.n_reps < 1:
            raise SchemaError("n_reps must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise SchemaError("alpha must be in (0, 1)")
        if self.sided not in SIDES:
            raise SchemaError(f"sided must be one of {SIDES}")
        specs = [parse_method(m) for m in self.methods]
        if self.dgp_kind == "continuous":
            for s in specs:
                if s.needs_levels:
                    raise SchemaError(
                        f"method {s.label!r} needs predictor levels and is only "
                        "available under the discrete design"
                    )
        else:
            if "GBM" in self.vol_models:
                raise SchemaError("the GBM volatility model is not part of the discrete design")
        for v in self.vol_models:
            if v not in VOL_MODELS:
                raise SchemaError(f"unknown volatility model {v!r}")
        # construct one config per combination to surface bad parameters early
        for beta in self.beta_values:
            for kappa in self.kappa_values:
                for T in self.T_values:
                    for vol in self.vol_models:
                        self.dgp_config(beta, kappa, T, vol).validate()

    def dgp_config(self, beta, kappa, T, vol):
        """The model of one combination: its coordinates plus the design's knobs."""
        horizon = {"years": float(T)} if self.dgp_kind == "continuous" else {"n_obs": int(T)}
        knobs = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("design") == self.dgp_kind
        }
        return _DGP_CONFIGS[self.dgp_kind](
            **horizon,
            kappa_bar=float(kappa),
            beta=float(beta),
            vol_model=vol,
            **knobs,
        )

    def dgp_signature(self, beta, kappa, T, vol) -> str:
        """Canonical coordinates of one simulated-data combination.

        The method is deliberately excluded: all tests are evaluated on the
        same replications.
        """
        if self.dgp_kind == "continuous":
            extras = (
                f"delta={self.delta!r}|rho_vw={self.rho_vw!r}|rho_wz={self.rho_wz!r}"
                f"|jump={self.jump_intensity!r},{self.jump_sd!r}"
            )
        else:
            extras = (
                f"ma={self.ma_order}|slope={self.slope_scale}|rho={self.rho!r}"
                f"|endo={self.endogeneity}"
            )
        return (
            f"{self.dgp_kind}|beta={float(beta)!r}|kappa={float(kappa)!r}"
            f"|T={float(T)!r}|vol={vol}|{extras}"
        )


def method_sort_key(label: str):
    """Natural ordering: group t first by q, then hybrid, then the
    differenced and grouped-differenced variants."""
    spec = parse_method(label)
    kind_rank = {"t_q": 0, "hybrid": 1, "hybrid_diff": 2, "grouped_hybrid": 3}[spec.kind]
    return (kind_rank, spec.q or 0, spec.parity or "")


@dataclass(frozen=True)
class CellKey:
    beta: float
    kappa: float
    T: float
    vol: str
    method: str

    def sort_key(self):
        return (self.beta, self.kappa, self.T, self.vol, method_sort_key(self.method))


@dataclass(frozen=True)
class CellResult:
    n_reps: int
    rejections: int
    degenerate: int

    @property
    def frequency(self) -> float:
        return self.rejections / self.n_reps

    @property
    def mc_se(self) -> float:
        p = self.frequency
        return float(np.sqrt(p * (1.0 - p) / self.n_reps))


@dataclass
class McTable:
    """Rejection frequencies per (beta, kappa, T, vol, method) cell."""

    cells: dict[CellKey, CellResult] = field(default_factory=dict)
    n_reps: int = 0

    def frequency(self, beta, kappa, T, vol, method) -> float:
        return self.cells[CellKey(float(beta), float(kappa), float(T), vol, method)].frequency

    def to_csv_text(self) -> str:
        lines = ["beta,kappa,T,vol,method,freq,mc_se,degenerate_count"]
        for key in sorted(self.cells, key=CellKey.sort_key):
            c = self.cells[key]
            lines.append(
                f"{key.beta!r},{key.kappa!r},{key.T!r},{key.vol},{key.method},"
                f"{c.frequency!r},{c.mc_se!r},{c.degenerate}"
            )
        return "\n".join(lines) + "\n"

    def to_aligned_text(self) -> str:
        """Panel layout: one block per (vol, beta), methods in rows and
        (kappa, T) combinations in columns, frequencies in percent."""
        keys = sorted(self.cells, key=CellKey.sort_key)
        vols = sorted({k.vol for k in keys})
        betas = sorted({k.beta for k in keys})
        kappas = sorted({k.kappa for k in keys})
        Ts = sorted({k.T for k in keys})
        methods = sorted({k.method for k in keys}, key=method_sort_key)
        cols = [(kp, T) for kp in kappas for T in Ts]
        width = 9
        out = []
        for vol in vols:
            for beta in betas:
                header = [f"vol={vol} beta={beta:g}".ljust(16)]
                header += [f"k={kp:g},T={T:g}".rjust(width) for kp, T in cols]
                out.append(" ".join(header))
                for m in methods:
                    row = [m.ljust(16)]
                    for kp, T in cols:
                        key = CellKey(beta, kp, T, vol, m)
                        cell = self.cells.get(key)
                        row.append(
                            f"{100 * cell.frequency:.1f}".rjust(width)
                            if cell is not None
                            else "-".rjust(width)
                        )
                    out.append(" ".join(row))
                out.append("")
        return "\n".join(out)


def _run_combination(grid: ExperimentGrid, beta, kappa, T, vol) -> dict[CellKey, CellResult]:
    """All methods over all replications of one simulated-data combination."""
    specs = [parse_method(m) for m in grid.methods]
    rejections = {s.label: 0 for s in specs}
    degenerate = {s.label: 0 for s in specs}
    simulate = simulate_continuous if grid.dgp_kind == "continuous" else simulate_discrete
    config = grid.dgp_config(beta, kappa, T, vol)
    signature = grid.dgp_signature(beta, kappa, T, vol)
    for rep in range(grid.n_reps):
        sample = simulate(config, RngStream(grid.master_seed, substream_index(signature, rep)))
        for spec in specs:
            try:
                if evaluate_method(spec, sample, grid.alpha, grid.sided).reject:
                    rejections[spec.label] += 1
            except DegenerateStatisticError:
                degenerate[spec.label] += 1
    return {
        CellKey(float(beta), float(kappa), float(T), vol, s.label): CellResult(
            n_reps=grid.n_reps,
            rejections=rejections[s.label],
            degenerate=degenerate[s.label],
        )
        for s in specs
    }


def run_cell(
    grid: ExperimentGrid, beta, kappa, T, vol, method: str
) -> CellResult:
    """One (beta, kappa, T, vol, method) cell.

    Uses the same per-replication streams as :func:`run_grid`, so the result
    matches the corresponding cell of a full-grid run bitwise.
    """
    sub = replace(grid, methods=(method,))
    out = _run_combination(sub, beta, kappa, T, vol)
    return out[CellKey(float(beta), float(kappa), float(T), vol, parse_method(method).label)]


def _combination_worker(args):
    grid, combo = args
    return _run_combination(grid, *combo)


def run_grid(grid: ExperimentGrid, workers: int = 1) -> McTable:
    """Evaluate the whole grid, optionally fanning combinations out to
    worker processes.  Output is independent of the worker count."""
    grid.validate()
    if workers < 1:
        raise DomainError("workers must be >= 1")
    combos = [
        (beta, kappa, T, vol)
        for beta in grid.beta_values
        for kappa in grid.kappa_values
        for T in grid.T_values
        for vol in grid.vol_models
    ]
    table = McTable(n_reps=grid.n_reps)
    if workers == 1 or len(combos) == 1:
        results = [_run_combination(grid, *combo) for combo in combos]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_combination_worker, [(grid, c) for c in combos]))
    for chunk in results:
        table.cells.update(chunk)
    return table


@dataclass(frozen=True)
class D2Result:
    n_draws: int
    n_steps: int
    threshold: float
    min_value: float
    tail_prob: float
    mc_se: float
    bin_centers: np.ndarray
    bin_counts: np.ndarray


_D2_CHUNK = 1000
_D2_BIN_EDGES = np.linspace(1.0, 26.0, 126)  # 125 bins of width 0.2


def default_d2_threshold() -> float:
    """Two-sided t critical value at the 5% level for a two-group split."""
    return dists.student_t(0.05, 1, "two_sided_cv")


def d2_study(
    n_draws: int,
    n_steps: int,
    threshold: Optional[float] = None,
    master_seed: int = 0,
) -> D2Result:
    """Simulate the two-group limit ratio of the group t-statistic.

    Each draw builds a Brownian path, recursively demeaned (the same
    recentering applied to predictors), integrates its absolute value over
    the two halves of [0, 1], and forms the limit ratio.  Reports the minimum, the
    exceedance probability of ``threshold``, and a fixed-bin histogram
    (values above the last edge are counted in the last bin).

    Draws are generated in fixed chunks of 1000, one stream per chunk, so
    results do not depend on scheduling.
    """
    if n_draws < 1000:
        raise DomainError("need at least 1000 draws")
    if n_steps < 100:
        raise DomainError("need at least 100 steps")
    if threshold is None:
        threshold = default_d2_threshold()
    values = np.empty(n_draws)
    pos = 0
    chunk_id = 0
    while pos < n_draws:
        take = min(_D2_CHUNK, n_draws - pos)
        # 2 groups of a demeaned path; both stay in the key, which fixes the draws
        stream = RngStream(master_seed, substream_index("d2", n_steps, 2, True, chunk_id))
        gen = stream.generator()
        for i in range(take):
            f = gen_brownian_abs_functionals(n_steps, gen, q=2, demean=True)
            values[pos + i] = d_statistic(f)
        pos += take
        chunk_id += 1
    tail = float(np.mean(values > threshold))
    counts, _ = np.histogram(np.clip(values, None, _D2_BIN_EDGES[-1] - 1e-12), bins=_D2_BIN_EDGES)
    centers = 0.5 * (_D2_BIN_EDGES[:-1] + _D2_BIN_EDGES[1:])
    return D2Result(
        n_draws=n_draws,
        n_steps=n_steps,
        threshold=float(threshold),
        min_value=float(values.min()),
        tail_prob=tail,
        mc_se=float(np.sqrt(tail * (1.0 - tail) / n_draws)),
        bin_centers=centers,
        bin_counts=counts,
    )
