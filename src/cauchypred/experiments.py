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

Combinations that share (T, vol) differ only in beta and kappa, so their
replications are simulated and tested together as the rows of one
:class:`~cauchypred.estimators.SampleBatch`: the rows of such a group run in
grid order, combination-major, and are cut into blocks of at most
``BLOCK_ELEMENTS`` (rows x observations).  A block is the unit of work both
in-process and in the worker pool; it counts rejections and degenerate
replications per combination, and the intermediates the methods share
(sign terms, OLS fits) are computed once per block.  Every row's outcome
depends on its own sample only, so the counts do not depend on the block
size.  :class:`McTable` keeps the counts as one dense array.

A method label names one of the paper's two tests (test family) on one
sample form, a :class:`MethodSpec` ``(q, parity)``.  :func:`evaluate_batch`
is the only label -> test dispatcher; :func:`evaluate_method` runs it on a
single sample as a batch of one.

==========================  ==========  ===============================
test family                 levels      differenced, even / odd
==========================  ==========  ===============================
group t over q >= 2 blocks  ``t<q>``    ``t<q>_tau_e`` / ``t<q>_tau_o``
hybrid                      ``tau``     ``tau_e`` / ``tau_o``
==========================  ==========  ===============================
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import dists
from .dgp import (
    DgpContinuousConfig,
    DgpDiscreteConfig,
    abs_integral_blocks,
    brownian_paths,
    d_statistic,
    simulate_continuous_batch,
    simulate_discrete_batch,
)
from .errors import DomainError, PartitionError, SchemaError
from .estimators import PARITIES, RegressionSample, SampleBatch, group_block_size, term_count
from .inference import BatchOutcomes, TestOutcome, check_level, group_t_outcomes, hybrid_outcomes
from .rng import RngStream, substream_index

_METHOD_RE = re.compile(r"^t(?P<q>\d+)$|^(?:t(?P<gq>\d+)_(?=tau_))?tau(?:_(?P<parity>[eo]))?$")
_PARITIES = {parity[0]: parity for parity in PARITIES}


@dataclass(frozen=True)
class MethodSpec:
    """A test, as its family times its sample form (labels: module docstring).

    ``q`` set means the group t-test over q blocks, unset the hybrid test;
    ``parity`` set means the first-differenced sample of that parity, unset
    the levels sample.
    """

    q: Optional[int] = None
    parity: Optional[str] = None

    @property
    def label(self) -> str:
        hybrid = "tau" if self.parity is None else f"tau_{self.parity[0]}"
        if self.q is None:
            return hybrid
        return f"t{self.q}" if self.parity is None else f"t{self.q}_{hybrid}"


def parse_method(label: str) -> MethodSpec:
    m = _METHOD_RE.match(label)
    if m is None:
        raise SchemaError(
            f"unknown method {label!r}; expected forms: t<q>, tau, tau_e, tau_o, t<q>_tau_e, t<q>_tau_o"
        )
    q = m.group("q") or m.group("gq")
    if q is not None and int(q) < 2:
        raise SchemaError(f"method {label!r}: the group t-test needs q >= 2 groups")
    return MethodSpec(q=None if q is None else int(q), parity=_PARITIES.get(m.group("parity")))


def evaluate_method(
    method: MethodSpec, sample: RegressionSample, alpha: float, sided: str
) -> TestOutcome:
    """Run the test a method label names on one sample, as a batch of one."""
    return evaluate_batch(method, SampleBatch.of(sample), alpha, sided).single()


def evaluate_batch(
    method: MethodSpec, batch: SampleBatch, alpha: float, sided: str
) -> BatchOutcomes:
    """Run the test a method label names on every sample of a batch."""
    if method.q is None:
        return hybrid_outcomes(batch, method.parity, alpha, sided)
    return group_t_outcomes(batch, method.q, method.parity, alpha, sided)


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
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise SchemaError(f"{f.name} must be finite, got {value!r}")
        if self.dgp_kind not in ("continuous", "discrete"):
            raise SchemaError(f"dgp_kind must be 'continuous' or 'discrete', got {self.dgp_kind!r}")
        for name in ("beta_values", "kappa_values", "T_values", "vol_models", "methods"):
            values = getattr(self, name)
            if len(values) == 0:
                raise SchemaError(f"{name} must be nonempty")
            # each coordinate names one row of the table; methods are compared parsed, below
            if name != "methods" and len(set(values)) < len(values):
                raise SchemaError(f"{name} lists a value more than once")
        if self.n_reps < 1:
            raise SchemaError("n_reps must be >= 1")
        specs = [parse_method(m) for m in self.methods]
        for s in specs:
            if specs.count(s) > 1:
                raise SchemaError(f"method {s.label!r} is listed more than once")
            if s.parity is not None and self.dgp_kind == "continuous":
                raise SchemaError(
                    f"method {s.label!r} needs predictor levels and is only "
                    "available under the discrete design"
                )
        if self.dgp_kind == "discrete" and not all(float(T).is_integer() for T in self.T_values):
            raise SchemaError("T_values must be whole numbers under the discrete design")
        # ask the owners of the seed, level, model and size rules before any block runs
        axes = (self.beta_values, self.kappa_values, self.T_values, self.vol_models)
        try:
            RngStream(self.master_seed)
            check_level(self.alpha, self.sided)
            n_obs = {self.dgp_config(*combination).n_obs for combination in itertools.product(*axes)}
        except DomainError as exc:
            raise SchemaError(str(exc)) from exc
        for n, s in itertools.product(sorted(n_obs), specs):
            try:
                terms = term_count(n, s.parity)
                if s.q is not None:
                    group_block_size(terms, s.q)
            except (DomainError, PartitionError) as exc:
                raise SchemaError(f"method {s.label!r} cannot run at n_obs = {n}: {exc}") from exc

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
    """Natural ordering: levels tests first (group t by q, then hybrid), then
    differenced ones (hybrid, then group t by q), parities even before odd."""
    spec = parse_method(label)
    differenced = spec.parity is not None
    return (differenced, (spec.q is None) != differenced, spec.q or 0, spec.parity or "")


@dataclass(frozen=True, slots=True)
class CellKey:
    beta: float
    kappa: float
    T: float
    vol: str
    method: str

    def sort_key(self):
        return (self.beta, self.kappa, self.T, self.vol, method_sort_key(self.method))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, eq=False)
class McTable:
    """Rejection frequencies per (beta, kappa, T, vol, method) cell.

    The grid's coordinates are kept once, and ``counts[c, m]`` holds the
    rejections and the degenerate replications of combination ``c`` under
    ``methods[m]``; combinations are numbered in grid order (beta, kappa,
    T, vol, the last varying fastest).
    """

    n_reps: int = 0
    beta_values: tuple[float, ...] = ()
    kappa_values: tuple[float, ...] = ()
    T_values: tuple[float, ...] = ()
    vol_models: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()
    counts: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 2), dtype=np.int64))

    @property
    def cells(self) -> Mapping[CellKey, CellResult]:
        """Every cell, in :meth:`CellKey.sort_key` order, as a read-only
        mapping built anew on each access."""
        return MappingProxyType(dict(self._sorted_cells()))

    def _sorted_cells(self):
        axes = (self.beta_values, self.kappa_values, self.T_values, self.vol_models)
        dense = self.counts.reshape(tuple(map(len, axes)) + self.counts.shape[1:]).tolist()
        methods = sorted(enumerate(self.methods), key=lambda im: method_sort_key(im[1]))
        ordered = [sorted(enumerate(values), key=lambda iv: iv[1]) for values in axes]
        for (b, beta), (k, kappa), (t, T), (v, vol) in itertools.product(*ordered):
            for m, method in methods:
                rejections, degenerate = dense[b][k][t][v][m]
                yield CellKey(beta, kappa, T, vol, method), CellResult(self.n_reps, rejections, degenerate)

    def frequency(self, beta, kappa, T, vol, method) -> float:
        return self.cells[CellKey(float(beta), float(kappa), float(T), vol, method)].frequency

    def to_csv_text(self) -> str:
        lines = ["beta,kappa,T,vol,method,freq,mc_se,degenerate_count"]
        for key, c in self._sorted_cells():
            lines.append(
                f"{key.beta!r},{key.kappa!r},{key.T!r},{key.vol},{key.method},"
                f"{c.frequency!r},{c.mc_se!r},{c.degenerate}"
            )
        return "\n".join(lines) + "\n"

    def to_aligned_text(self) -> str:
        """Panel layout: one block per (vol, beta), methods in rows and
        (kappa, T) combinations in columns, frequencies in percent."""
        cells = self.cells
        methods = sorted(self.methods, key=method_sort_key)
        cols = [(kp, T) for kp in sorted(self.kappa_values) for T in sorted(self.T_values)]
        width = 9
        out = []
        for vol in sorted(self.vol_models):
            for beta in sorted(self.beta_values):
                header = [f"vol={vol} beta={beta:g}".ljust(16)]
                header += [f"k={kp:g},T={T:g}".rjust(width) for kp, T in cols]
                out.append(" ".join(header))
                for m in methods:
                    row = [m.ljust(16)]
                    for kp, T in cols:
                        cell = cells[CellKey(beta, kp, T, vol, m)]
                        row.append(f"{100 * cell.frequency:.1f}".rjust(width))
                    out.append(" ".join(row))
                out.append("")
        return "\n".join(out)


# Most elements (rows x observations) in one (R, T) array of a block: at
# T = 1200 that is 40 rows, 384 KB.
BLOCK_ELEMENTS = 48_000


def _run_combination(grid: ExperimentGrid, T, vol, rows: range) -> np.ndarray:
    """The unit of work of :func:`run_grid`: one block of rows of the
    (T, vol) group, simulated and tested together.

    Row ``i`` of the group is replication ``i % n_reps`` of the group's
    ``i // n_reps``-th (beta, kappa) pair in grid order, drawn from the
    stream of that replication.  Returns the rejection and degenerate
    counts the block adds, as a (pairs, methods, 2) array.
    """
    specs = [parse_method(m) for m in grid.methods]
    pairs = list(itertools.product(grid.beta_values, grid.kappa_values))
    n = grid.n_reps
    first = rows.start // n
    configs, streams, starts = [], [], []
    for j in range(first, (rows.stop - 1) // n + 1):
        beta, kappa = pairs[j]
        signature = grid.dgp_signature(beta, kappa, T, vol)
        reps = range(max(rows.start - j * n, 0), min(rows.stop - j * n, n))
        starts.append(len(streams))
        streams += [RngStream(grid.master_seed, substream_index(signature, rep)) for rep in reps]
        configs += [grid.dgp_config(beta, kappa, T, vol)] * len(reps)
    simulate = simulate_continuous_batch if grid.dgp_kind == "continuous" else simulate_discrete_batch
    batch = simulate(configs, streams)
    counts = np.zeros((len(pairs), len(specs), 2), dtype=np.int64)
    span = slice(first, first + len(starts))
    for k, spec in enumerate(specs):
        outcomes = evaluate_batch(spec, batch, grid.alpha, grid.sided)
        counts[span, k, 0] = np.add.reduceat(outcomes.reject, starts, dtype=np.int64)
        counts[span, k, 1] = np.add.reduceat(outcomes.cause != 0, starts, dtype=np.int64)
    return counts


def run_cell(
    grid: ExperimentGrid, beta, kappa, T, vol, method: str
) -> CellResult:
    """One (beta, kappa, T, vol, method) cell.

    Runs :func:`run_grid` on the grid of that one cell, which draws the same
    per-replication streams, so the result matches the corresponding cell
    of a full-grid run bitwise.
    """
    one = replace(
        grid, beta_values=(beta,), kappa_values=(kappa,), T_values=(T,), vol_models=(vol,), methods=(method,)
    )
    (cell,) = run_grid(one).cells.values()
    return cell


def run_grid(grid: ExperimentGrid, workers: int = 1) -> McTable:
    """Evaluate the whole grid, optionally fanning its blocks out to worker
    processes, largest first.  Output is independent of the worker count."""
    grid.validate()
    if workers < 1:
        raise DomainError("workers must be >= 1")
    pairs = len(grid.beta_values) * len(grid.kappa_values)
    rows = pairs * grid.n_reps  # in each (T, vol) group
    blocks = []  # (elements, T index, vol index, rows of the group)
    first_pair = (grid.beta_values[0], grid.kappa_values[0])
    for t, v in np.ndindex(len(grid.T_values), len(grid.vol_models)):
        n_obs = grid.dgp_config(*first_pair, grid.T_values[t], grid.vol_models[v]).n_obs
        step = max(1, BLOCK_ELEMENTS // n_obs)
        blocks += [
            (min(step, rows - start) * n_obs, t, v, range(start, min(start + step, rows)))
            for start in range(0, rows, step)
        ]
    blocks.sort(key=lambda b: b[0], reverse=True)
    tasks = [(grid, grid.T_values[t], grid.vol_models[v], block) for _, t, v, block in blocks]
    if workers == 1 or len(tasks) == 1:
        results = [_run_combination(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only where a pool runs

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_combination, *task) for task in tasks]
            results = [f.result() for f in futures]
    counts = np.zeros(
        (pairs, len(grid.T_values), len(grid.vol_models), len(grid.methods), 2), dtype=np.int64
    )
    for (_, t, v, _), result in zip(blocks, results):
        counts[:, t, v] += result
    return McTable(
        n_reps=grid.n_reps,
        beta_values=tuple(map(float, grid.beta_values)),
        kappa_values=tuple(map(float, grid.kappa_values)),
        T_values=tuple(map(float, grid.T_values)),
        vol_models=grid.vol_models,
        methods=tuple(parse_method(m).label for m in grid.methods),
        counts=counts.reshape(-1, len(grid.methods), 2),
    )


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
_D2_BLOCK = 100  # paths drawn and reduced together within a chunk
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
    if threshold is None:
        threshold = default_d2_threshold()
    if not np.isfinite(threshold):
        raise DomainError(f"threshold must be finite, got {threshold}")
    values = np.empty(n_draws)
    pos = 0
    chunk_id = 0
    while pos < n_draws:
        take = min(_D2_CHUNK, n_draws - pos)
        # 2 groups of a demeaned path; both stay in the key, which fixes the draws
        stream = RngStream(master_seed, substream_index("d2", n_steps, 2, True, chunk_id))
        gen = stream.generator()
        for i in range(0, take, _D2_BLOCK):
            count = min(_D2_BLOCK, take - i)
            paths = brownian_paths(gen, count, n_steps, demean=True)
            values[pos + i : pos + i + count] = d_statistic(abs_integral_blocks(paths, 2))
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
