"""In-memory span recorder for the traced benchmark run.

The recorder wraps cauchypred's public functions from outside the package:
it rebinds the module attributes that hold them, including every name a
module re-imported from another (``inference.cauchy_estimate``,
``experiments.group_gammas``, ``dgp.recursive_demean``, the package-level
re-exports), and the class attributes of the methods listed below.  Nothing
under ``src/`` changes; :meth:`SpanRecorder.uninstall` restores every
original binding.

Each call records one span: name, start, end, parent span, replication id
and the exception class it raised, if any.  Spans stay in memory until
:meth:`SpanRecorder.write` saves them as CSV.  A span's self time is its
duration minus the durations of its direct children; the package runs
single-threaded under tracing, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# Module -> public functions and methods ("Class.method") to wrap.
TARGETS = {
    "cauchypred.rng": (
        "RngStream.generator",
        "substream_index",
        "correlated_normal_arrays",
        "draw_correlated_normals",
    ),
    "cauchypred.dists": ("std_normal", "student_t", "chi_square_sf"),
    "cauchypred.estimators": (
        "RegressionSample.__post_init__",
        "sign_conv",
        "cauchy_estimate",
        "partition_consecutive",
        "group_gammas",
        "ols_fit",
        "omega_hat_sq",
        "diff_terms",
        "diff_cauchy",
        "recursive_demean",
    ),
    "cauchypred.inference": (
        "ReferenceDistribution.cdf",
        "t_statistic",
        "t_q_test",
        "hybrid_test",
        "hybrid_test_intercept",
        "grouped_hybrid_test",
        "bonferroni_joint",
        "wald_joint",
    ),
    "cauchypred.dgp": (
        "gen_volatility",
        "ma_weights",
        "simulate_continuous",
        "simulate_discrete",
        "abs_integral_blocks",
        "brownian_path",
        "gen_brownian_abs_functionals",
        "d_statistic",
    ),
    "cauchypred.experiments": (
        "parse_method",
        "evaluate_method",
        "method_sort_key",
        "ExperimentGrid.validate",
        "ExperimentGrid.dgp_config",
        "ExperimentGrid.dgp_signature",
        "_run_combination",
        "run_cell",
        "run_grid",
        "default_d2_threshold",
        "d2_study",
    ),
    "cauchypred.dataio": (
        "EmpiricalDataset.__post_init__",
        "EmpiricalDataset.to_regression_sample",
        "parse_csv",
        "config_to_grid",
        "load_experiment_file",
    ),
    "cauchypred.cli": ("main",),
}

# A call to one of these starts a new replication id: one simulated sample
# in the Monte Carlo runner (grid validation's probe configs get ids too),
# one draw of the d2 study, one CLI invocation.
REP_ROOTS = (
    "experiments.ExperimentGrid.dgp_config",
    "dgp.gen_brownian_abs_functionals",
    "cli.main",
)


def _vol_of_config(args, kwargs):
    return (args[0] if args else kwargs["config"]).vol_model


def _vol_model_arg(args, kwargs):
    return args[0] if args else kwargs["model"]


# Spans of these functions are named per volatility model, e.g.
# "dgp.simulate_discrete[RS]".
SPAN_KEYS = {
    "dgp.simulate_continuous": _vol_of_config,
    "dgp.simulate_discrete": _vol_of_config,
    "dgp.gen_volatility": _vol_model_arg,
}


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the normals it returns."""

    __slots__ = ("_gen", "_recorder")

    def __init__(self, gen, recorder):
        self._gen = gen
        self._recorder = recorder

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._recorder.normals += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class SpanRecorder:
    """Records spans around cauchypred's public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rep = array("q")
        self.error = array("i")
        self.normals = 0
        self._stack: list[int] = []
        self._rep = 0
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, name: str, fn):
        recorder = self
        key = SPAN_KEYS.get(name)
        fixed_id = None if key else self._intern(name)
        starts_rep = name in REP_ROOTS
        counts_normals = name == "rng.RngStream.generator"
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if starts_rep:
                recorder._rep += 1
            name_id = fixed_id if key is None else recorder._intern(f"{name}[{key(args, kwargs)}]")
            stack = recorder._stack
            idx = len(recorder.start)
            recorder.name_id.append(name_id)
            recorder.parent.append(stack[-1] if stack else -1)
            recorder.rep.append(recorder._rep)
            recorder.end.append(0.0)
            recorder.error.append(-1)
            stack.append(idx)
            recorder.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder.error[idx] = recorder._intern(type(exc).__name__)
                raise
            finally:
                recorder.end[idx] = perf_counter()
                stack.pop()
            if counts_normals:
                return _CountingGenerator(result, recorder)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self) -> None:
        """Rebind every wrapped function wherever the package refers to it."""
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        modules = [importlib.import_module("cauchypred")]
        modules += [importlib.import_module(name) for name in TARGETS]
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            short = module_name.rpartition(".")[2]
            for attr in attrs:
                owner, _, fname = attr.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    self._patch(cls, fname, self._wrap(f"{short}.{attr}", cls.__dict__[fname]))
                    continue
                original = getattr(module, fname)
                wrapped = self._wrap(f"{short}.{attr}", original)
                for m in modules:
                    for bound_name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, bound_name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # analysis

    def _durations(self) -> np.ndarray:
        return np.array(self.end) - np.array(self.start)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, raised errors by class."""
        if not self.start:
            return {}
        names = np.array(self.name_id)
        parent = np.array(self.parent)
        errors = np.array(self.error)
        dur = self._durations()
        nested = parent >= 0
        covered = np.zeros(dur.shape[0])
        np.add.at(covered, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        out: dict[str, dict] = {}
        for i in np.flatnonzero(calls):
            raised = errors[(names == i) & (errors >= 0)]
            out[self.names[i]] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "errors": {self.names[e]: int((raised == e).sum()) for e in np.unique(raised)},
            }
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        if not self.start:
            return 0.0
        return float(self._durations()[np.array(self.parent) < 0].sum())

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span with this exact name."""
        idx = self._name_ids.get(name)
        if idx is None:
            return np.empty(0)
        return self._durations()[np.array(self.name_id) == idx]

    def write(self, path: Path) -> None:
        """Save all spans as CSV: name,start_s,end_s,parent,rep,error."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,rep,error\n")
            for i in range(len(self.start)):
                err = self.error[i]
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.rep[i]},{self.names[err] if err >= 0 else ''}\n"
                )
