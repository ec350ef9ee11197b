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
``BLOCK_ELEMENTS`` (rows x observations).  A block is the unit of work, in
this process and in the child processes of a fan-out; it counts rejections
and degenerate replications per combination, and the intermediates the
methods share (sign terms, OLS fits) are computed once per block.  Every
row's outcome depends on its own sample only, so the counts do not depend
on the block size.  :class:`McTable` keeps the counts as one dense array.

Each share of blocks runs in one :class:`~cauchypred.estimators.Workspace`,
whose buffers grow to the largest block and are never freed, so blocks
neither allocate nor fault their memory in again; no array of a block
outlives it.  The calling thread keeps one workspace for its own share of
every call, and each thread keeps the child processes of its fan-outs,
started on the first call that needs them, each with a private workspace of
its own.  :func:`d2_study` deals its chunks into shares that run on the same
children, each share in a workspace of its own that it frees.  A child ends
when the caller closes its pipe or exits, and any failure of a call ends
every child of the thread; an at-fork hook makes every forked process let
go of the children it inherited.  A public call outside the engine makes
its own workspace, so it never sees a block's memory.

A grid parses its method labels once, when it is built; each block runs
every method through :func:`~cauchypred.inference.evaluate_batch`, the
label -> test dispatcher that lives with the tests and their labels.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import weakref
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .dgp import (
    MAX_N_OBS,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    _integral_blocks,
    brownian_paths,
    d_statistic,
    simulate_continuous_batch,
    simulate_discrete_batch,
    typed_fields,
)
from .errors import DomainError, PartitionError, SchemaError
from .estimators import Workspace, group_block_size, term_count
from .inference import check_level, default_d2_threshold, evaluate_batch, parse_method
from .inference import evaluate_method  # noqa: F401  (unused here; perfbench/spans.py traces it under this name)
from .rng import RngStream, substream_index, substream_indices

_DGP_CONFIGS = {"continuous": DgpContinuousConfig, "discrete": DgpDiscreteConfig}
# the grid's coordinates, in the order of a combination's (beta, kappa, T, vol)
_AXES = ("beta_values", "kappa_values", "T_values", "vol_models")

# Most simulated values (replications x observations, summed over the
# combinations) in one grid: 140 times the six bundled configs together.
# run_grid lists a grid's blocks, about 300 bytes each, before it runs one;
# blocks hold 24 001 values or more, so at this bound the list stays below 0.26 GB.
MAX_GRID_ELEMENTS = 20_000_000_000
# Most workers of one call: all but one of them are kept child processes.
MAX_WORKERS = 256


def check_workers(workers: Optional[int]) -> int:
    """The worker count of a call: ``workers``, an int from 1 to
    ``MAX_WORKERS``, or for ``None`` the CPUs this process may run on."""
    if workers is None:
        return min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, MAX_WORKERS)
    if isinstance(workers, bool) or not isinstance(workers, int) or not 1 <= workers <= MAX_WORKERS:
        raise DomainError(f"workers must be an int from 1 to MAX_WORKERS = {MAX_WORKERS}, got {workers!r}")
    return workers


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
    ``design`` metadata marks the knobs of a single design.  Building a grid
    checks it once, raising :class:`SchemaError` at the first rule it breaks,
    and converts each field to its type (a list to a tuple, an int to a float).
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

    def __post_init__(self) -> None:
        # each field to its declared type, then every rule a run would hit
        typed_fields(self, SchemaError)
        if self.dgp_kind not in ("continuous", "discrete"):
            raise SchemaError(f"dgp_kind must be 'continuous' or 'discrete', got {self.dgp_kind!r}")
        # each coordinate names one row of the table; methods are compared parsed, below
        for name in _AXES:
            if len(set(getattr(self, name))) < len(getattr(self, name)):
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
        if self.dgp_kind == "discrete" and not all(T.is_integer() for T in self.T_values):
            raise SchemaError("T_values must be whole numbers under the discrete design")
        # ask the owners of the seed, level, model and size rules before any
        # block runs; the DGP configs own the range rules of every coordinate
        # and knob, and the finite rule of each coordinate
        try:
            RngStream(self.master_seed)
            check_level(self.alpha, self.sided)
        except DomainError as exc:
            raise SchemaError(str(exc)) from exc
        models = {}
        for combination in itertools.product(*(getattr(self, axis) for axis in _AXES)):
            try:
                config = self.dgp_config(*combination)
            except DomainError as exc:
                at = ", ".join(f"{axis} entry {value!r}" for axis, value in zip(_AXES, combination))
                raise SchemaError(f"{exc}; at {at}") from exc
            models.setdefault(combination[2:], []).append(config)
        elements = sum(len(configs) * self.n_reps * configs[0].n_obs for configs in models.values())
        if elements > MAX_GRID_ELEMENTS:
            raise SchemaError(
                f"n_reps = {self.n_reps} asks for {elements:.3g} simulated values over the grid "
                f"(replications x observations), above MAX_GRID_ELEMENTS = {MAX_GRID_ELEMENTS:g}"
            )
        n_obs = {group[0].n_obs for group in models.values()}
        for n, s in itertools.product(sorted(n_obs), specs):
            try:
                terms = term_count(n, s.parity)
                if s.q is not None:
                    group_block_size(terms, s.q)
            except (DomainError, PartitionError) as exc:
                raise SchemaError(f"method {s.label!r} cannot run at n_obs = {n}: {exc}") from exc
        object.__setattr__(self, "_models", MappingProxyType({g: tuple(c) for g, c in models.items()}))
        object.__setattr__(self, "_specs", tuple(specs))

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled grid is checked too
        return functools.partial(ExperimentGrid, **{f.name: getattr(self, f.name) for f in fields(self)}), ()

    def validate(self) -> Mapping[tuple, tuple]:
        """Each (T, vol) group's tuple of the DGP configs of its (beta,
        kappa) pairs, in grid order, as a read-only mapping.

        Building the grid checked it against every rule a run would hit and
        made this mapping: a grid that breaks a rule is never built.
        """
        return self._models

    def dgp_config(self, beta, kappa, T, vol):
        """The model of one combination: its coordinates plus the design's knobs."""
        horizon = {"years": T} if self.dgp_kind == "continuous" else {"n_obs": int(T)}
        knobs = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("design") == self.dgp_kind
        }
        return _DGP_CONFIGS[self.dgp_kind](**horizon, kappa_bar=kappa, beta=beta, vol_model=vol, **knobs)

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

_THREAD = threading.local()
# the parent-side pipe end of every kept child of every thread in this process
_ENDS = weakref.WeakSet()
_CHILD = "cauchypred child"  # every kept child's process name


def _kept() -> list:
    """The calling thread's kept children, as (process, pipe end) pairs,
    beside its own workspace (a kept child's is its main thread's)."""
    if not hasattr(_THREAD, "children"):
        _THREAD.children, _THREAD.workspace = [], Workspace()
    return _THREAD.children


def _forget_children() -> None:
    """In every forked process: close its copies of the kept children's pipe
    ends, drop the children (by name: other threads' records are freed at
    fork) from the registry whose exit hook ends them, and forget this thread's."""
    for end in list(_ENDS):
        end.close()
    if registry := sys.modules.get("multiprocessing.process"):
        registry._children -= {child for child in registry._children if child.name == _CHILD}
    _THREAD.__dict__.clear()


if hasattr(os, "register_at_fork"):  # Windows has no fork, so nothing is inherited
    os.register_at_fork(after_in_child=_forget_children)


def _end_children(keep: int = 0) -> None:
    """Kill, join and forget the calling thread's kept children but the
    first ``keep``."""
    kept = _kept()
    for child, end in kept[keep:]:
        child.kill()  # a no-op once the child has exited
        child.join()
        end.close()
    del kept[keep:]


def _run_combination(
    grid: ExperimentGrid, t: int, v: int, rows: range, counts: np.ndarray, workspace: Workspace
) -> None:
    """The unit of work of :func:`run_grid`: one block of rows of the
    ``(T_values[t], vol_models[v])`` group, simulated and tested together
    in ``workspace``.

    Row ``i`` of the group is replication ``i % n_reps`` of the group's
    ``i // n_reps``-th (beta, kappa) pair in grid order, drawn from the
    stream of that replication; the block is one batch of the group's first
    DGP config with each row's beta and kappa.  Adds its rejection and
    degenerate counts into ``counts[pairs, t, v]`` of a (pairs, T, vol,
    methods, 2) array: two blocks can share the pair at their boundary.
    """
    T, vol = grid.T_values[t], grid.vol_models[v]
    models = grid.validate()[T, vol]
    n = grid.n_reps
    first, stop = rows.start // n, (rows.stop - 1) // n + 1
    indices, starts = [], []
    for j in range(first, stop):
        reps = range(max(rows.start - j * n, 0), min(rows.stop - j * n, n))
        starts.append(len(indices))
        indices += substream_indices(grid.dgp_signature(models[j].beta, models[j].kappa_bar, T, vol), reps)
    per_pair = np.array([(model.beta, model.kappa_bar) for model in models[first:stop]])
    beta, kappa = np.repeat(per_pair, np.diff(starts + [len(indices)]), axis=0).T
    simulate = simulate_continuous_batch if grid.dgp_kind == "continuous" else simulate_discrete_batch
    batch = simulate(models[0], grid.master_seed, np.array(indices, dtype=np.uint64), beta, kappa, workspace)
    span = counts[first:stop, t, v]
    for k, spec in enumerate(grid._specs):
        outcomes = evaluate_batch(spec, batch, grid.alpha, grid.sided)
        span[:, k, 0] += np.add.reduceat(outcomes.reject, starts, dtype=np.int64)
        span[:, k, 1] += np.add.reduceat(outcomes.cause != 0, starts, dtype=np.int64)


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


def _deal(sizes: list, n: int) -> list[list[int]]:
    """Indices of ``sizes`` (largest first) dealt into ``n`` shares, each to
    the share with the fewest elements so far, the first on a tie."""
    shares, loads = [[] for _ in range(n)], [0] * n
    for i, size in enumerate(sizes):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += size
    return shares


def _run_share(grid: ExperimentGrid, blocks: list) -> np.ndarray:
    """The counts of a share of ``(t, v, rows)`` blocks, run one after
    another in the calling thread's workspace, each added into one (pairs,
    T, vol, methods, 2) array as it ends."""
    pairs = len(grid.beta_values) * len(grid.kappa_values)
    counts = np.zeros((pairs, len(grid.T_values), len(grid.vol_models), len(grid.methods), 2), dtype=np.int64)
    _kept()  # makes the thread's workspace where it has none: in a kept child, on its first share
    for t, v, rows in blocks:
        _run_combination(grid, t, v, rows, counts, _THREAD.workspace)
    return counts


def _child(end) -> None:
    """A kept child's life: run each ``(share, task)`` it receives over
    ``end`` as ``share(*task)``, in its main thread, whose workspace it
    keeps, and send back the result, or the exception that stopped it,
    until the caller closes its end."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    while True:
        try:
            share, task = end.recv()
            sent = share(*task)
        except EOFError:
            return
        except Exception as exc:
            sent = exc
        end.send(sent)


def _fan_out(share, tasks: list[tuple], workers: int) -> list:
    """``share(*task)`` of every task, in task order: this process runs the
    first task while the thread's kept children, at most ``workers`` - 1
    and started when first needed, run one other task each and send back
    its result.  ``share`` is a module-level function, so a child finds it
    by name.

    A child's exception is raised here, and a child that exits without
    sending raises :class:`ChildProcessError` with its exit code.  Any
    failure, the caller's own exception or interrupt included, kills, joins
    and forgets every child of the thread, so the next call starts afresh.
    """
    kept = _kept()
    if len(tasks) == 1:
        return [share(*tasks[0])]
    try:
        _end_children(keep=workers - 1)
        if len(kept) < len(tasks) - 1:
            import multiprocessing  # loaded only where a fan-out runs

            # fork on Linux, whatever the interpreter's default, so children start
            # with the package loaded; the platform's default elsewhere
            context = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)
            while len(kept) < len(tasks) - 1:
                end, theirs = context.Pipe()
                _ENDS.add(end)
                child = context.Process(target=_child, args=(theirs,), name=_CHILD, daemon=True)
                child.start()
                theirs.close()  # the child holds the only copy, so its exit ends the pipe
                kept.append((child, end))
        children = kept[: len(tasks) - 1]
        for (_, end), task in zip(children, tasks[1:]):
            try:
                end.send((share, task))
            except ConnectionError:
                pass  # a child that died idle is named below, with its exit code
        results = [share(*tasks[0])]
        for child, end in children:
            try:
                sent = end.recv()
            except (EOFError, ConnectionError):  # the end of a pipe, or its reset with a task unread
                child.join()
                raise ChildProcessError(
                    f"{_CHILD} {child.pid} exited with code {child.exitcode} before sending its result"
                ) from None
            if isinstance(sent, Exception):
                raise sent
            results.append(sent)
        return results
    except BaseException:
        _end_children()
        raise


def run_grid(grid: ExperimentGrid, workers: Optional[int] = 1) -> McTable:
    """Evaluate the whole grid.  Output is independent of the worker count.

    With ``workers`` > 1 and more than one block, the blocks, largest first,
    are dealt into ``min(workers, blocks)`` shares of about equal elements;
    this process runs the first share while one kept child process runs
    each of the others, and the shares' count arrays are summed.  This
    thread keeps its children for its next call, so each starts once: on
    its first share it loads what it lacks and solves the grid's critical
    values itself, as it does for each later grid at a new level.
    """
    models = grid.validate()
    workers = check_workers(workers)
    rows = len(grid.beta_values) * len(grid.kappa_values) * grid.n_reps  # in each (T, vol) group
    blocks = []  # (elements, T index, vol index, rows of the group)
    for t, v in np.ndindex(len(grid.T_values), len(grid.vol_models)):
        n_obs = models[grid.T_values[t], grid.vol_models[v]][0].n_obs
        step = max(1, BLOCK_ELEMENTS // n_obs)
        blocks += [
            (min(step, rows - start) * n_obs, t, v, range(start, min(start + step, rows)))
            for start in range(0, rows, step)
        ]
    blocks.sort(key=lambda b: b[0], reverse=True)
    shares = _deal([b[0] for b in blocks], min(workers, len(blocks)))
    counts = sum(_fan_out(_run_share, [(grid, [blocks[i][1:] for i in share]) for share in shares], workers))
    return McTable(
        n_reps=grid.n_reps,
        beta_values=grid.beta_values,
        kappa_values=grid.kappa_values,
        T_values=grid.T_values,
        vol_models=grid.vol_models,
        methods=tuple(spec.label for spec in grid._specs),
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


# Most draws of a d2 study: their values take 80 MB, twice that while binned.
MAX_D2_DRAWS = 10_000_000
_D2_CHUNK = 1000
_D2_BLOCK = 100  # paths drawn and reduced together within a chunk
_D2_BIN_EDGES = np.linspace(1.0, 26.0, 126)  # 125 bins of width 0.2


def _d2_share(n_draws: int, n_steps: int, threshold: float, master_seed: int, chunks: list) -> tuple:
    """The histogram counts, the exceedances of ``threshold`` and the
    minimum of the draws of the chunks numbered ``chunks``, in a workspace
    of the share's own, freed on return: no kept workspace holds a study's
    paths."""
    workspace, values = Workspace(), []
    for chunk_id in chunks:
        # 2 groups of a demeaned path; both stay in the key, which fixes the draws
        gen = RngStream(master_seed, substream_index("d2", n_steps, 2, True, chunk_id)).generator()
        chunk = range(chunk_id * _D2_CHUNK, min((chunk_id + 1) * _D2_CHUNK, n_draws))
        for start in chunk[::_D2_BLOCK]:
            paths = brownian_paths(gen, min(_D2_BLOCK, chunk.stop - start), n_steps, demean=True, workspace=workspace)
            # the path is the block's own workspace array: |path| overwrites it
            values.append(d_statistic(_integral_blocks(np.abs(paths, out=paths), 2)))
    values = np.concatenate(values)
    counts, _ = np.histogram(np.clip(values, None, _D2_BIN_EDGES[-1] - 1e-12), bins=_D2_BIN_EDGES)
    return counts, int(np.count_nonzero(values > threshold)), float(values.min())


def d2_study(
    n_draws: int,
    n_steps: int,
    threshold: Optional[float] = None,
    master_seed: int = 0,
    workers: Optional[int] = None,
) -> D2Result:
    """Simulate the two-group limit ratio of the group t-statistic.

    Each draw builds a Brownian path, recursively demeaned (the same
    recentering applied to predictors), integrates its absolute value over
    the two halves of [0, 1], and forms the limit ratio.  Reports the minimum, the
    exceedance probability of ``threshold``, and a fixed-bin histogram
    (values above the last edge are counted in the last bin).

    Draws are generated in fixed chunks of 1000, one stream per chunk, so
    results do not depend on scheduling: the chunks are dealt into
    ``min(workers, chunks)`` shares that run as :func:`run_grid`'s do, and
    the shares' histograms and exceedance counts are summed and their
    minima compared.  ``workers`` defaults to the usable CPUs.
    """
    if n_draws < 1000:
        raise DomainError("need at least 1000 draws")
    if n_draws > MAX_D2_DRAWS:
        raise DomainError(f"n_draws must be at most MAX_D2_DRAWS = {MAX_D2_DRAWS}, got {n_draws}")
    if n_steps > MAX_N_OBS:  # a chunk holds two (100, n_steps) arrays: 1.6 GB at the bound
        raise DomainError(f"n_steps must be at most MAX_N_OBS = {MAX_N_OBS}, got {n_steps}")
    workers = check_workers(workers)
    threshold = default_d2_threshold() if threshold is None else threshold
    if not np.isfinite(threshold):
        raise DomainError(f"threshold must be finite, got {threshold}")
    sizes = [min(_D2_CHUNK, n_draws - start) for start in range(0, n_draws, _D2_CHUNK)]  # largest first
    tasks = [(n_draws, n_steps, threshold, master_seed, chunks) for chunks in _deal(sizes, min(workers, len(sizes)))]
    counts, exceeding, minima = zip(*_fan_out(_d2_share, tasks, workers))
    tail = sum(exceeding) / n_draws
    return D2Result(
        n_draws=n_draws, n_steps=n_steps, threshold=float(threshold), min_value=min(minima), tail_prob=tail,
        mc_se=float(np.sqrt(tail * (1.0 - tail) / n_draws)), bin_counts=sum(counts),
        bin_centers=0.5 * (_D2_BIN_EDGES[:-1] + _D2_BIN_EDGES[1:]),
    )
