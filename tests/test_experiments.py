"""Experiment-engine contracts: method parsing, grid validation, cell/grid
agreement, worker-count invariance, and the exceedance study."""

import copy
import dataclasses
import itertools
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import cauchypred
from cauchypred import (
    CauchyPredError,
    DgpContinuousConfig,
    DgpDiscreteConfig,
    DomainError,
    ExperimentGrid,
    MethodSpec,
    PartitionError,
    RegressionSample,
    RngStream,
    SchemaError,
    d2_study,
    default_d2_threshold,
    experiments,
    group_gammas,
    inference,
    grouped_hybrid_test,
    hybrid_test,
    hybrid_test_intercept,
    parse_method,
    run_cell,
    run_grid,
    simulate_continuous_batch,
    simulate_discrete,
    simulate_discrete_batch,
    substream_index,
    t_q_test,
)
from cauchypred.dataio import (
    bundled_config_names,
    config_to_grid,
    grid_to_config,
    load_experiment_file,
    resolve_config_path,
)
from cauchypred.experiments import evaluate_method
from cauchypred.inference import SIDES
from cauchypred.inference import TestOutcome as Outcome  # not collected as a test class

GOLDEN = Path(__file__).parent / "golden"


def small_discrete_grid(**overrides):
    kw = dict(
        dgp_kind="discrete",
        beta_values=(0.0,),
        kappa_values=(0.0, 50.0),
        T_values=(60.0,),
        vol_models=("CNST",),
        methods=("tau_o", "t8_tau_o"),
        n_reps=40,
        sided="right",
        master_seed=99,
    )
    kw.update(overrides)
    return ExperimentGrid(**kw)


class TestMethodParsing:
    @pytest.mark.parametrize(
        "label,kind,q,parity",
        [
            ("t8", "t_q", 8, None),
            ("t16", "t_q", 16, None),
            ("tau", "hybrid", None, None),
            ("tau_e", "hybrid_diff", None, "even"),
            ("tau_o", "hybrid_diff", None, "odd"),
            ("t12_tau_o", "grouped_hybrid", 12, "odd"),
            ("t8_tau_e", "grouped_hybrid", 8, "even"),
        ],
    )
    def test_labels(self, label, kind, q, parity, monkeypatch):
        spec = parse_method(label)
        assert (spec.q, spec.parity) == (q, parity)
        assert spec.label == label
        # the family picks the kernel, which gets the (q, parity) the label names
        calls = []
        monkeypatch.setattr(
            inference, "group_t_outcomes",
            lambda batch, q, parity, *args: calls.append(("group_t", q, parity)),
        )
        monkeypatch.setattr(
            inference, "hybrid_outcomes",
            lambda batch, parity, *args: calls.append(("hybrid", None, parity)),
        )
        batch = simulate_discrete_batch(DgpDiscreteConfig(n_obs=60), 1, [0])
        inference.evaluate_batch(spec, batch, 0.05, "two")
        kernel = "group_t" if kind in ("t_q", "grouped_hybrid") else "hybrid"
        assert calls == [(kernel, q, parity)]

    @pytest.mark.parametrize(
        "label", ["t", "tau_x", "q8", "t8tau", "", "t8_tau", "t0", "t1", "t1_tau_o"]
    )
    def test_bad_labels(self, label):
        # the grammar rejects the form; MethodSpec's value rule rejects q < 2
        q = {"t0": 0, "t1": 1, "t1_tau_o": 1}.get(label)
        message = "^unknown method " if q is None else f"^method '{label}': q must be at least 2 groups, got {q}$"
        with pytest.raises(SchemaError, match=message):
            parse_method(label)


# Every public name of the package, as `from cauchypred import *` gave them
# before the runner's names were loaded on first use.
PACKAGE_NAMES = """
BatchOutcomes BrownianAbsFunctionals CauchyFit CauchyPredError CellKey CellResult CsvFormatError D2Result
DegenerateDenominatorError DegenerateGroupsError DegenerateStatisticError DegenerateVarianceError
DgpContinuousConfig DgpDiscreteConfig DomainError EmpiricalDataset ExperimentGrid GroupStatistics
InsufficientDataError JointTestOutcome McTable MethodSpec PartitionError ReferenceDistribution
RegressionSample RngStream SampleBatch SchemaError SignDegeneracyError SingularDesignError TestOutcome
bonferroni_joint cauchy_estimate chi_square_sf correlated_normal_arrays d2_study d_statistic dataio
default_d2_threshold dgp diff_cauchy dists draw_correlated_normals errors estimators evaluate_batch
experiments gen_brownian_abs_functionals gen_volatility group_gammas grouped_hybrid_test hybrid_test
hybrid_test_intercept inference load_experiment_file ma_weights ols_fit omega_hat_sq parse_csv
parse_method recursive_demean rng run_cell run_grid sign_conv simulate_continuous simulate_continuous_batch
simulate_discrete simulate_discrete_batch std_normal std_normal_two_sided_cv student_t
student_t_two_sided_cv substream_index t_q_test wald_joint
""".split()


class TestPackageNames:
    def test_every_name_is_its_module_binding(self):
        star = {}
        exec("from cauchypred import *", star)
        assert sorted(set(star) - {"__builtins__"}) == sorted(cauchypred.__all__) == PACKAGE_NAMES
        assert set(PACKAGE_NAMES) <= set(dir(cauchypred))
        for name in PACKAGE_NAMES:
            value = getattr(cauchypred, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"cauchypred.{name}"]
            else:
                assert getattr(sys.modules[value.__module__], name) is value, name

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            cauchypred.nope  # noqa: B018

    def test_runner_names_follow_the_module(self, monkeypatch):
        # looked up anew on each access, never cached in the package
        def f(grid, workers=1):
            pass

        monkeypatch.setattr(experiments, "run_grid", f)
        assert cauchypred.run_grid is f
        monkeypatch.undo()
        assert cauchypred.run_grid is experiments.run_grid is not f

    def test_runner_loads_without_at_fork_hooks(self):
        # where os.register_at_fork does not exist (Windows has no fork), the
        # runner still loads, registers nothing and runs a grid
        grid = dataclasses.asdict(small_discrete_grid(n_reps=3))
        probe = f"import os; del os.register_at_fork; import cauchypred; cauchypred.run_grid(cauchypred.ExperimentGrid(**{grid!r}))"
        subprocess.run([sys.executable, "-c", probe], check=True, env=ENV, timeout=60)


def public_test(spec, sample, alpha, sided):
    """The public single-sample test a method names, called directly."""
    if spec.q is None:
        if spec.parity is None:
            return hybrid_test(sample, alpha, sided)
        return hybrid_test_intercept(sample, spec.parity, alpha, sided)
    if spec.parity is None:
        return t_q_test(group_gammas(sample, spec.q), alpha, sided)
    return grouped_hybrid_test(sample, spec.parity, spec.q, alpha, sided)


def outcome_or_error(run, *args):
    try:
        return run(*args)
    except CauchyPredError as exc:
        return type(exc), str(exc)


class TestSingleSampleDispatch:
    @pytest.mark.parametrize("label", ["t8", "tau", "tau_e", "tau_o", "t8_tau_e", "t8_tau_o"])
    @pytest.mark.parametrize("sided", SIDES)
    def test_matches_public_tests(self, label, sided):
        # evaluate_method runs the batch kernel on a batch of one; every
        # outcome field, and every error, is the public test's
        spec = parse_method(label)
        samples = [  # kappa_bar is at most 2 n_obs
            simulate_discrete(DgpDiscreteConfig(n_obs=n, kappa_bar=kappa), RngStream(7, n))
            for n, kappa in ((17, 30.0), (60, 50.0), (240, 50.0))
        ]
        lev = samples[1].x_level
        zero = RegressionSample(y=np.zeros(60), x_lag=lev[:-1], x_level=lev)
        short = RegressionSample(y=np.array([0.3, -1.2]), x_lag=lev[:2], x_level=lev[:3])
        for sample in samples + [zero, short]:
            for alpha in (0.05, 0.1):
                got = outcome_or_error(evaluate_method, spec, sample, alpha, sided)
                assert got == outcome_or_error(public_test, spec, sample, alpha, sided)
        # a zero response leaves no spread; two observations are too few
        # for every test but the levels hybrid
        assert not isinstance(outcome_or_error(evaluate_method, spec, zero, 0.05, sided), Outcome)
        short_ok = isinstance(outcome_or_error(evaluate_method, spec, short, 0.05, sided), Outcome)
        assert short_ok == (label == "tau")


class TestGridValidation:
    def test_empty_methods(self):
        with pytest.raises(SchemaError):
            small_discrete_grid(methods=()).validate()

    def test_parity_method_on_continuous(self):
        with pytest.raises(SchemaError):
            ExperimentGrid(
                dgp_kind="continuous",
                beta_values=(0.0,),
                kappa_values=(0.0,),
                T_values=(5.0,),
                vol_models=("CNST",),
                methods=("tau_e",),
                n_reps=10,
                master_seed=1,
            )

    def test_gbm_on_discrete(self):
        with pytest.raises(SchemaError):
            small_discrete_grid(vol_models=("GBM",)).validate()

    def test_bad_alpha(self):
        with pytest.raises(SchemaError):
            small_discrete_grid(alpha=1.5).validate()

    def test_fractional_T_on_discrete(self):
        # T counts observations; 240.5 would simulate 240 but label the cell 240.5
        with pytest.raises(SchemaError, match="whole numbers"):
            small_discrete_grid(T_values=(60.0, 240.5)).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_non_finite_field_named(self, kind, value):
        # the DGP configs and check_level own the finite rule; the grid's
        # message still names the field, or the coordinate entry, at fault
        base = size_grid(kind, (20.0, 60.0), "tau", beta_values=(0.0, 1.0), kappa_values=(0.0, 5.0))
        hints = typing.get_type_hints(ExperimentGrid)
        names = [
            f.name for f in dataclasses.fields(ExperimentGrid)
            if hints[f.name] in (float, tuple[float, ...]) and f.metadata.get("design", kind) == kind
        ]
        assert {"beta_values", "kappa_values", "T_values", "alpha"} < set(names)
        for name in names:
            bad = (getattr(base, name)[0], value) if name.endswith("_values") else value
            with pytest.raises(SchemaError) as info:
                dataclasses.replace(base, **{name: bad}).validate()
            message = str(info.value)
            assert message.startswith(name) or f"{name} entry {value!r}" in message, message

    @pytest.mark.parametrize("methods", [("tau_o", "tau_o"), ("t8", "t08")])
    def test_duplicate_methods(self, methods):
        # cells are keyed by label, so a repeated method would be counted twice
        with pytest.raises(SchemaError, match="more than once"):
            small_discrete_grid(methods=methods).validate()

    def test_validation_is_memoised_per_grid(self):
        grid = small_discrete_grid(T_values=(60.0, 120.0))
        unvalidated = pickle.dumps(grid)
        models = grid.validate()
        assert grid.validate() is models
        assert list(models) == [(60.0, "CNST"), (120.0, "CNST")]
        assert models[60.0, "CNST"] == tuple(grid.dgp_config(0.0, k, 60.0, "CNST") for k in (0.0, 50.0))
        with pytest.raises(TypeError):
            models[60.0, "CNST"] = ()
        # the memo is not pickled into a pool task, nor copied by replace
        assert pickle.dumps(grid) == unvalidated
        assert pickle.loads(pickle.dumps(grid)) == grid
        assert dataclasses.replace(grid).validate() is not models

    def test_invalid_grid_raises_on_every_call(self):
        # an invalid grid is never built: every attempt raises
        for _ in range(2):
            with pytest.raises(SchemaError):
                small_discrete_grid(alpha=1.5)


def size_grid(kind, T_values, method, **overrides):
    """A one-method grid whose first T is the one under test."""
    kw = dict(beta_values=(0.0,), kappa_values=(0.0,), vol_models=("CNST",), n_reps=3, master_seed=5)
    kw.update(overrides)
    return ExperimentGrid(dgp_kind=kind, T_values=T_values, methods=(method,), **kw)


# q above the terms a T provides: 60 observations at 5 years, 29 odd pairs
# at T = 60, 6 observations at half a year
TOO_FEW_TERMS = [
    ("continuous", (5.0, 10.0), "t100", 60),
    ("discrete", (60.0, 240.0), "t40_tau_o", 60),
    ("continuous", (0.5, 10.0), "t8", 6),
]


class TestSizeRules:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,T_values,method,n_obs", TOO_FEW_TERMS)
    def test_rejected_before_any_block(self, monkeypatch, workers, kind, T_values, method, n_obs):
        # two T values make two blocks, so workers=2 would start a pool
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_combination", no_block)
        with pytest.raises(SchemaError, match=f"method '{method}' cannot run at n_obs = {n_obs}:"):
            run_grid(size_grid(kind, T_values, method), workers=workers)

    @pytest.mark.parametrize(
        "kind,T,method", [("continuous", 5.0, "t60"), ("discrete", 60.0, "t29_tau_o")]
    )
    def test_boundary_accepted_and_runs(self, kind, T, method):
        # q equal to the terms: one term per block
        grid = size_grid(kind, (T,), method)
        grid.validate()
        assert run_grid(grid).n_reps == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_size_bound_before_any_block(self, monkeypatch, workers):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_combination", no_block)
        with pytest.raises(SchemaError, match="n_reps = 1000000000000 asks for 3e\\+14 simulated values"):
            run_grid(size_grid("discrete", (240.0, 60.0), "tau_o", n_reps=10**12), workers=workers)

    def test_grid_size_boundary(self):
        # two (beta, kappa) pairs at 1000 observations: the bound is n_reps x 2000
        n_reps = experiments.MAX_GRID_ELEMENTS // 2000
        size_grid("discrete", (1000.0,), "tau_o", beta_values=(0.0, 1.0), n_reps=n_reps).validate()
        with pytest.raises(SchemaError, match="MAX_GRID_ELEMENTS"):
            size_grid("discrete", (1000.0,), "tau_o", beta_values=(0.0, 1.0), n_reps=n_reps + 1).validate()

    def test_differenced_pairs(self):
        # at least 2 pairs: T = 8 gives 3 odd pairs; the hybrid has no q
        size_grid("discrete", (8.0,), "tau_o").validate()
        with pytest.raises(SchemaError, match="'t4_tau_o' cannot run at n_obs = 8"):
            size_grid("discrete", (8.0,), "t4_tau_o").validate()

    def test_each_n_obs_checked_once(self, monkeypatch):
        # run_grid re-validates on every call: the size rule runs per
        # distinct (n_obs, method), not per combination
        calls = []
        real = experiments.term_count
        monkeypatch.setattr(experiments, "term_count", lambda n, parity: calls.append(n) or real(n, parity))
        size_grid(
            "discrete", (60.0, 240.0), "tau_o",
            beta_values=(0.0, 1.0, 2.0), kappa_values=(0.0, 5.0), vol_models=("CNST", "SB"),
        ).validate()
        assert sorted(calls) == [60, 240]


# values of the wrong type, and the message that names each: the same
# whether the grid is built in Python or from an experiment file
WRONG_TYPES = [
    ("n_reps", True, "n_reps must be a nonnegative integer"),
    ("n_reps", 2.5, "n_reps must be a nonnegative integer"),
    ("n_reps", -3, "n_reps must be a nonnegative integer"),
    ("alpha", "0.05", "alpha must be a number"),
    ("alpha", False, "alpha must be a number"),
    ("beta_values", 0.0, "beta_values must be a nonempty list of numbers"),
    ("beta_values", [0.0, True], "beta_values must be a nonempty list of numbers"),
    ("T_values", [], "T_values must be a nonempty list of numbers"),
    ("ma_order", 2.0, "ma_order must be a nonnegative integer"),
    ("methods", "tau_o", "methods must be a nonempty list of strings"),
    ("vol_models", "CNST", "vol_models must be a nonempty list of strings"),
    ("sided", ["right"], "sided must be a string"),
]


class TestTypedGrid:
    """A grid holds its declared types and is checked once, when built."""

    @pytest.mark.parametrize("path", ["python", "file"])
    @pytest.mark.parametrize("name,value,message", WRONG_TYPES, ids=lambda v: repr(v)[:20])
    def test_wrong_type_rejected_when_built(self, monkeypatch, path, name, value, message):
        monkeypatch.setattr(experiments, "_run_combination", lambda *args: pytest.fail("a block ran"))
        config = grid_to_config(small_discrete_grid(), "typed")
        with pytest.raises(SchemaError) as info:
            if path == "python":
                run_grid(small_discrete_grid(**{name: value}))
            else:
                run_grid(config_to_grid({**config, name: value}))
        assert str(info.value) == message

    def test_fields_hold_declared_types(self):
        # lists become tuples, ints in float fields floats, numpy scalars Python ones
        grid = small_discrete_grid(
            beta_values=[np.float32(0.5), 1], kappa_values=(np.int64(0),), T_values=[60], n_reps=np.int64(3),
            alpha=np.float64(0.1), master_seed=np.uint64(5), rho=-1, methods=[np.str_("tau_o")],
        )
        hints = typing.get_type_hints(ExperimentGrid)
        for f in dataclasses.fields(grid):
            value, hint = getattr(grid, f.name), hints[f.name]
            if typing.get_origin(hint) is tuple:
                assert type(value) is tuple and all(type(v) is typing.get_args(hint)[0] for v in value), f.name
            else:
                assert type(value) is hint, f.name
        assert grid == small_discrete_grid(
            beta_values=(0.5, 1.0), kappa_values=(0.0,), T_values=(60.0,), n_reps=3,
            alpha=0.1, master_seed=5, rho=-1.0, methods=("tau_o",),
        )

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_bundled_echo_rebuilds_the_grid(self, name):
        _, grid = load_experiment_file(resolve_config_path(name))
        echo = grid_to_config(grid, name)
        del echo["name"]
        again = ExperimentGrid(**echo)
        assert again == grid
        assert list(again.validate().items()) == list(grid.validate().items())

    def test_copies_are_built_and_checked(self):
        grid = small_discrete_grid(T_values=(60.0, 120.0))
        copies = (pickle.loads(pickle.dumps(grid)), copy.copy(grid), copy.deepcopy(grid), dataclasses.replace(grid))
        for again in copies:
            assert again == grid and again is not grid
            assert list(again.validate().items()) == list(grid.validate().items())
        # an unpickled grid goes through the constructor, checks included
        object.__setattr__(grid, "alpha", 1.5)
        with pytest.raises(SchemaError, match="alpha must be in"):
            pickle.loads(pickle.dumps(grid))

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_knob_gets_the_dgp_configs_message(self, kind):
        # the grid and the DGP configs share one type rule: a wrong-typed
        # knob in an experiment file fails with the config's own text
        config, horizon = {"continuous": (DgpContinuousConfig, {"years": 5.0}),
                           "discrete": (DgpDiscreteConfig, {"n_obs": 60})}[kind]
        file = grid_to_config(size_grid(kind, (5.0,) if kind == "continuous" else (60.0,), "tau"), "typed")
        wrong = {"float": ["0.5", True, None, float("nan")], "int": [2.0, True, -1, "2"], "str": [1, ["v"], None]}
        types = {f.name: f.type for f in dataclasses.fields(config)}
        knobs = [f.name for f in dataclasses.fields(ExperimentGrid) if f.metadata.get("design") == kind]
        assert len(knobs) >= 4
        for name, value in ((n, v) for n in knobs for v in wrong[types[n]]):
            with pytest.raises(DomainError) as built:
                config(**horizon, **{name: value})
            with pytest.raises(SchemaError) as loaded:
                config_to_grid({**file, name: value})
            assert str(loaded.value) == str(built.value), (name, value)
            assert str(built.value).startswith(name), (name, value)

    @pytest.mark.parametrize("fields,message", [
        ({"q": 2.5}, "q must be a nonnegative integer"),
        ({"q": True}, "q must be a nonnegative integer"),
        ({"parity": 1}, "parity must be a string"),
        ({"q": 1}, "q must be at least 2 groups, got 1"),
        ({"q": 0, "parity": "even"}, "q must be at least 2 groups, got 0"),
        ({"parity": "x"}, "parity must be one of 'even', 'odd', got 'x'"),
        ({"q": 4, "parity": "e"}, "parity must be one of 'even', 'odd', got 'e'"),
    ], ids=repr)
    def test_method_spec_typed_when_built(self, fields, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            MethodSpec(**fields)

    def test_method_spec_holds_python_types(self):
        spec = MethodSpec(q=np.int64(4), parity=np.str_("even"))
        assert (type(spec.q), type(spec.parity)) == (int, str)
        assert spec == parse_method("t4_tau_e") and spec.label == "t4_tau_e"
        assert MethodSpec() == parse_method("tau")


class TestRunGrid:
    def test_frequencies_are_exact_counts(self):
        table = run_grid(small_discrete_grid())
        for key, cell in table.cells.items():
            assert cell.rejections + cell.degenerate <= cell.n_reps
            assert cell.frequency == cell.rejections / cell.n_reps
            assert cell.mc_se == pytest.approx(
                np.sqrt(cell.frequency * (1 - cell.frequency) / cell.n_reps)
            )

    def test_single_rep_frequency_binary(self):
        table = run_grid(small_discrete_grid(n_reps=1))
        for cell in table.cells.values():
            assert cell.frequency in (0.0, 1.0)

    def test_worker_invariance_bitwise(self, monkeypatch):
        grid = small_discrete_grid(
            beta_values=(0.0, 1.0), kappa_values=(0.0, 50.0), T_values=(60.0, 120.0), n_reps=20
        )
        serial = run_grid(grid, workers=1).to_csv_text()
        # two groups of one block each: 8 workers get 2 shares
        for workers in (2, 3, 8):
            assert run_grid(grid, workers=workers).to_csv_text() == serial
        # blocks of one row (a cap below one row still takes one), and one
        # block per (T, vol) group: the counts do not depend on the cut
        for cap in (60, 4 * 20 * 120):
            monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", cap)
            for workers in (1, 2, 3):
                assert run_grid(grid, workers=workers).to_csv_text() == serial
        # the last call, at 3 workers and two shares, kept the one child
        # that the call at 2 workers left
        assert len(kept_pids()) == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children are forked on Linux only")
    def test_kept_child_imports_once(self, tmp_path):
        # a fresh interpreter records every audit event raised in its forked
        # children: the package imports leave numpy.random and
        # multiprocessing out; the kept child may import what its first share
        # needs, and runs a second grid, at another alpha whose critical
        # values it solves itself, importing nothing
        log = tmp_path / "worker_events.txt"
        fields = {k: v for k, v in dataclasses.asdict(continuous_grid()).items() if k != "alpha"}
        probe = f"""
import os, sys
parent = os.getpid()
fd = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

def record(event, args):
    if os.getpid() != parent:
        os.write(fd, f"{{os.getpid()}} {{event}} {{args[0] if args else ''}}\\n".encode())

sys.addaudithook(record)
import cauchypred
import cauchypred.cli
assert not {{"numpy.random", "multiprocessing"}} & set(sys.modules), "import cauchypred"
for alpha in (0.05, 0.01):
    cauchypred.run_grid(cauchypred.ExperimentGrid(**{fields!r}, alpha=alpha), workers=2)
    os.write(fd, b"- call -\\n")
"""
        subprocess.run([sys.executable, "-c", probe], check=True, env=ENV, timeout=120)
        calls = [
            [line.split(" ", 2) for line in call.splitlines() if line]
            for call in log.read_text().split("- call -\n")
        ]
        assert len(calls) == 3 and calls[2] == []
        assert not [module for _, event, module in calls[1] if event == "import"]
        # one child ran both calls, and rebuilt each grid from its pickle
        assert len({pid for call in calls for pid, _, _ in call}) == 1
        for call in calls[:2]:
            assert [module for _, event, module in call if event == "pickle.find_class"].count("cauchypred.experiments") == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads a process's state in /proc")
    @pytest.mark.parametrize("ending", ["exit", "sigkill", "sigkill with a forked helper"])
    def test_children_end_with_their_caller(self, ending):
        # a fresh interpreter keeps two children after a call at 3 workers;
        # whether it exits normally or is killed, both are gone within 5 s,
        # also while a process it forked, which holds copies of its pipe
        # ends, still runs
        probe = f"""
import os, sys, time, cauchypred
cauchypred.run_grid(cauchypred.ExperimentGrid(**{dataclasses.asdict(continuous_grid(vol_models=("RS", "GBM", "CNST")))!r}), workers=3)
helper = os.fork() if {"helper" in ending} else -1
if helper == 0:
    time.sleep(60)
    os._exit(0)
print(*[child.pid for child, _ in cauchypred.experiments._kept()], helper, flush=True)
sys.stdin.read()
"""
        caller = subprocess.Popen(
            [sys.executable, "-c", probe], env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        *pids, helper = [int(pid) for pid in caller.stdout.readline().split()]
        try:
            if ending != "exit":
                caller.kill()
            caller.stdin.close()  # the end of the caller's input, where it exits normally
            caller.stdout.close()
            assert caller.wait(timeout=60) == (0 if ending == "exit" else -9)
            deadline = time.monotonic() + 5
            while any(map(alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if alive(pid)]
            assert len(pids) == 2 and not survivors
            assert helper == -1 or alive(helper)
        finally:
            for pid in [*pids, helper]:  # so a failure leaves no process behind
                if pid > 0 and alive(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("owner", ["main thread", "live thread", "ended thread"])
    def test_forked_process_exits_normally(self, owner):
        # a fresh interpreter keeps a child in one thread, then forks a
        # process that ends through the interpreter's normal exit: the child
        # is not terminated, its owner's next call keeps it and gets the
        # serial cells, and an ended thread's child exits on its own
        probe = f"""
import json, os, sys, threading, cauchypred
from multiprocessing.connection import wait
grid = cauchypred.ExperimentGrid(**{dataclasses.asdict(small_discrete_grid(**self.TWO_BLOCKS))!r})
serial = cauchypred.run_grid(grid).to_csv_text()
owner = {owner!r}
ready, go, reply = threading.Event(), threading.Event(), {{}}

def keep():
    cauchypred.run_grid(grid, workers=2)
    [(reply["child"], _)] = cauchypred.experiments._kept()

def reuse():
    reply["cells"] = cauchypred.run_grid(grid, workers=2).to_csv_text() == serial
    reply["kept"] = [child is reply["child"] for child, _ in cauchypred.experiments._kept()]
    reply["child"].join(timeout=0)
    reply["exitcode"] = reply.pop("child").exitcode

def in_thread():
    keep()
    ready.set()
    if owner == "live thread":
        go.wait()
        reuse()

thread = threading.Thread(target=in_thread)
if owner == "main thread":
    keep()
else:
    thread.start()
    ready.wait()
if owner == "ended thread":  # its child ends on the pipe's end and is not reaped
    thread.join()
    wait([reply["child"].sentinel])
pid = os.fork()
if pid == 0:
    sys.exit(0)
status = os.waitpid(pid, 0)[1]
go.set()
if owner == "live thread":
    thread.join()
else:
    reuse()
print(json.dumps({{"status": status, **reply}}))
"""
        done = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=120)
        # no exit hook of the forked process joined or terminated the child
        assert done.returncode == 0 and "can only join" not in done.stderr, done.stderr
        assert "Traceback" not in done.stderr, done.stderr
        reply = json.loads(done.stdout)
        assert reply["status"] == 0 and reply["cells"] and reply["kept"] == [owner != "ended thread"]
        # alive and kept, or ended at the end of its pipe
        assert reply["exitcode"] == (0 if owner == "ended thread" else None)

    @staticmethod
    def fail_blocks(monkeypatch, in_parent, in_child):
        """Make every block call ``in_parent()`` or ``in_child()`` first,
        after the process that runs it; this thread's children are ended
        first, so the next fan-out forks ones that see the patch."""
        experiments._end_children()
        parent = os.getpid()
        run = experiments._run_combination

        def patched(*task):
            (in_parent if os.getpid() == parent else in_child)()
            return run(*task)

        monkeypatch.setattr(experiments, "_run_combination", patched)

    # two (T, vol) groups of one block each: the second block runs in a child
    TWO_BLOCKS = dict(T_values=(60.0, 120.0))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children are forked on Linux only")
    def test_child_exception_reraised(self, monkeypatch):
        def in_child():
            raise PartitionError("no partition in the child")

        self.fail_blocks(monkeypatch, lambda: None, in_child)
        with pytest.raises(PartitionError, match="^no partition in the child$") as raised:
            run_grid(small_discrete_grid(**self.TWO_BLOCKS), workers=2)
        assert raised.type is PartitionError
        assert not experiments._kept() and not multiprocessing.active_children()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children are forked on Linux only")
    def test_child_exit_names_its_code(self, monkeypatch):
        # the dead child is forgotten: the next call starts a new one; a
        # kept child killed while idle is named the same way by the next call
        grid = small_discrete_grid(**self.TWO_BLOCKS)
        serial = run_grid(grid).to_csv_text()
        self.fail_blocks(monkeypatch, lambda: None, lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="exited with code 3 before sending"):
            run_grid(grid, workers=2)
        assert not experiments._kept() and not multiprocessing.active_children()
        monkeypatch.undo()
        assert run_grid(grid, workers=2).to_csv_text() == serial
        (pid,) = kept_pids()
        os.kill(pid, signal.SIGKILL)
        while alive(pid):  # dead before the call, whose share then finds no reader
            time.sleep(0.01)
        with pytest.raises(ChildProcessError, match="exited with code -9 before sending"):
            run_grid(grid, workers=2)
        assert not experiments._kept() and not multiprocessing.active_children()
        assert run_grid(grid, workers=2).to_csv_text() == serial
        assert len(kept_pids()) == 1

    def test_children_leave_interrupts_to_the_caller(self):
        # a terminal's interrupt reaches the whole process group: the kept
        # children ignore it and keep serving, and the caller's own
        # KeyboardInterrupt ends them as any failure does
        grid = small_discrete_grid(**self.TWO_BLOCKS)
        serial = run_grid(grid).to_csv_text()
        run_grid(grid, workers=2)
        pids = kept_pids()
        for pid in pids:
            os.kill(pid, signal.SIGINT)
        for _ in range(2):
            assert run_grid(grid, workers=2).to_csv_text() == serial and kept_pids() == pids

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children are forked on Linux only")
    def test_caller_failure_ends_children(self, monkeypatch):
        # the caller's own share raises while its child is still busy: the
        # child is killed and joined before the exception propagates
        def in_parent():
            raise DomainError("the caller's share failed")

        self.fail_blocks(monkeypatch, in_parent, lambda: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(DomainError, match="the caller's share failed"):
            run_grid(small_discrete_grid(**self.TWO_BLOCKS), workers=2)
        assert time.monotonic() - start < 30
        assert not experiments._kept() and not multiprocessing.active_children()

    def test_blocks_span_combinations(self, monkeypatch):
        # 7-row blocks of 5-replication combinations: every block but the
        # first starts inside a combination, and some span three
        grid = small_discrete_grid(kappa_values=(0.0, 20.0, 50.0, 100.0), n_reps=5)
        whole = run_grid(grid)
        monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 7 * 60)
        assert np.array_equal(run_grid(grid).counts, whole.counts)
        for kappa in grid.kappa_values:
            assert run_cell(grid, 0.0, kappa, 60.0, "CNST", "t8_tau_o") == whole.cells[
                experiments.CellKey(0.0, kappa, 60.0, "CNST", "t8_tau_o")
            ]

    def test_share_adds_its_blocks(self):
        # one share of blocks that start and end inside combinations, out of
        # order, in two (T, vol) groups: its one count array is the grid's
        grid = small_discrete_grid(
            kappa_values=(0.0, 20.0, 50.0, 100.0), T_values=(60.0, 120.0), vol_models=("CNST", "RS"), n_reps=5
        )
        whole = run_grid(grid).counts
        cuts = (0, 3, 10, 11, 17, 20)
        blocks = [(t, v, range(a, b)) for t, v in itertools.product((1, 0), (0, 1)) for a, b in zip(cuts, cuts[1:])]
        workspace = experiments.Workspace()
        counts = experiments._run_share(grid, blocks[::-1], workspace)
        assert counts.shape == (4, 2, 2, 2, 2)
        assert np.array_equal(counts.reshape(whole.shape), whole)
        # shares over any split of the blocks add up to it, in any workspace
        halves = [experiments._run_share(grid, blocks[i::2], experiments.Workspace()) for i in (0, 1)]
        assert np.array_equal(halves[0] + halves[1], counts)
        # a block counts into its own (T, vol) group and the pairs it covers only
        part = experiments._run_share(grid, [(0, 1, range(3, 10))], workspace)
        assert part[2:].sum() == part[:, 0, 0].sum() == part[:, 1].sum() == 0

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_methods(self, monkeypatch, own_children, method):
        # a child that is not forked imports the package once and, like a
        # forked one, gets the grid pickled without its validation memo on
        # every call, so it validates it once a call; it sends the cells a
        # serial run gives
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        _, grid = load_experiment_file(resolve_config_path("size_persistent_vol"))
        grid = dataclasses.replace(grid, n_reps=40)
        serial = run_grid(grid).to_csv_text()
        context, asked = multiprocessing.get_context(method), []
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: asked.append(method) or context)
        assert run_grid(grid, workers=2).to_csv_text() == serial
        first = kept_pids()
        assert run_grid(grid, workers=2).to_csv_text() == serial
        assert len(asked) == 1 and len(first) == 1 and kept_pids() == first  # one child, started once

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_parses_no_label(self, monkeypatch, workers):
        # the grid parsed its methods once, when it was built: the blocks
        # and the table read those specs (a kept child, started by the first
        # call, rebuilds each grid it is sent)
        grid = small_discrete_grid(T_values=(60.0, 240.0), methods=("tau_o", "t8_tau_o", "t8"))
        run_grid(grid, workers=workers)
        calls = []

        def spy(label):
            calls.append(label)
            raise AssertionError(f"parse_method({label!r}) ran during run_grid")

        monkeypatch.setattr(experiments, "parse_method", spy)
        table = run_grid(grid, workers=workers)  # two blocks: a child runs one at workers 2
        assert calls == []
        monkeypatch.undo()
        assert table.methods == grid.methods
        assert table.to_csv_text() == run_grid(grid).to_csv_text()

    def test_run_cell_matches_grid(self):
        grid = small_discrete_grid()
        table = run_grid(grid)
        cell = run_cell(grid, 0.0, 50.0, 60.0, "CNST", "tau_o")
        assert cell.rejections == table.cells[
            next(k for k in table.cells if k.kappa == 50.0 and k.method == "tau_o")
        ].rejections

    def test_methods_share_draws(self):
        # adding a method leaves existing cells untouched
        base = run_grid(small_discrete_grid(methods=("tau_o",)))
        more = run_grid(small_discrete_grid(methods=("tau_o", "tau_e")))
        for key, cell in base.cells.items():
            assert more.cells[key].rejections == cell.rejections

    def test_adding_grid_points_preserves_cells(self):
        base = run_grid(small_discrete_grid(kappa_values=(0.0,)))
        extended = run_grid(small_discrete_grid(kappa_values=(0.0, 100.0)))
        for key, cell in base.cells.items():
            assert extended.cells[key].rejections == cell.rejections

    def test_csv_shape(self):
        text = run_grid(small_discrete_grid(n_reps=5)).to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "beta,kappa,T,vol,method,freq,mc_se,degenerate_count"
        assert len(lines) == 1 + 2 * 2  # kappa values x methods

    def test_aligned_text_contains_all_methods(self):
        text = run_grid(small_discrete_grid(n_reps=5)).to_aligned_text()
        assert "tau_o" in text and "t8_tau_o" in text

    def test_degenerate_counting(self):
        # a constant-volatility sample of length 8 with q=8 grouped blocks of
        # one term each can produce identical group values; run a tiny grid
        # that cannot fail structurally and check the accounting instead
        table = run_grid(small_discrete_grid(n_reps=30))
        for cell in table.cells.values():
            assert 0 <= cell.degenerate <= cell.n_reps

    def test_bad_workers(self):
        for workers in (0, 2.5, 1.0, "2", True):
            with pytest.raises(DomainError, match=f"workers must be an int >= 1, got {workers!r}$"):
                run_grid(small_discrete_grid(), workers=workers)

    @pytest.mark.parametrize(
        "name,workers",
        [pytest.param(name, 1, id=name) for name in bundled_config_names()]
        + [pytest.param(name, 2, id=f"{name}-workers2") for name in bundled_config_names()],
    )
    def test_cells_match_golden(self, name, workers, monkeypatch, own_children):
        # every bundled config at 10 reps and master seed 1, byte for byte,
        # serially and through a fan-out (forked on Linux, spawned
        # elsewhere); no block reads BatchOutcomes.p_value, and the only
        # p-values computed to decide are of statistics within the band
        # around the critical value (in practice none)
        _, grid = load_experiment_file(resolve_config_path(name))
        grid = dataclasses.replace(grid, n_reps=10, master_seed=1)
        p_value, decided = inference._p_value, []

        def spy(statistic, ref, sided):
            decided.append((statistic, ref, sided))
            return p_value(statistic, ref, sided)

        monkeypatch.setattr(inference, "_p_value", spy)
        monkeypatch.setattr(inference.BatchOutcomes, "p_value", property(lambda self: pytest.fail("p_value read")))
        assert run_grid(grid, workers).to_csv_text() == (GOLDEN / f"{name}_cells.csv").read_text(encoding="utf-8")
        for statistic, ref, sided in decided:
            c = inference.critical_value(ref, grid.alpha, sided)
            oriented = {"two": np.abs(statistic), "right": statistic, "left": -statistic}[sided]
            assert np.all(np.abs(oriented - c) < 1e-9 * max(1.0, abs(c)))

    def test_monte_carlo_builds_no_sample(self, monkeypatch):
        # the engine and d2_study run batch kernels only: no single-sample
        # object, and so none of its validation, is made per replication
        built = []
        post_init = RegressionSample.__post_init__
        monkeypatch.setattr(RegressionSample, "__post_init__", lambda self: built.append(self) or post_init(self))
        for name in bundled_config_names():
            _, grid = load_experiment_file(resolve_config_path(name))
            run_grid(dataclasses.replace(grid, n_reps=3), workers=1)
        d2_study(1000, 200)
        assert built == []

    def test_stream_keys_are_substream_indices(self, monkeypatch):
        # each replication's stream index is substream_index(signature, rep),
        # also in blocks that start and end inside a combination; each block
        # is one batch of one model under the grid's seed
        grid = small_discrete_grid(
            beta_values=(0.0, 1.0), kappa_values=(0.0, 50.0), T_values=(60.0, 120.0), vol_models=("CNST", "SB"),
            n_reps=7,
        )
        keys = []

        def simulate(config, master_seed, stream_indices, *args):
            assert isinstance(config, DgpDiscreteConfig) and master_seed == grid.master_seed
            assert stream_indices.dtype == np.uint64
            keys.extend(stream_indices.tolist())
            return simulate_discrete_batch(config, master_seed, stream_indices, *args)

        monkeypatch.setattr(experiments, "simulate_discrete_batch", simulate)
        monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 5 * 60)
        run_grid(grid)
        expected = [
            substream_index(grid.dgp_signature(*combination), rep)
            for combination in itertools.product(*(getattr(grid, axis) for axis in experiments._AXES))
            for rep in range(grid.n_reps)
        ]
        assert sorted(keys) == sorted(expected) and len(set(keys)) == len(keys)

    def test_no_stream_or_config_per_replication(self, monkeypatch):
        # a replication is its index under the grid's seed: a run builds no
        # RngStream, and a block checks each of its other (beta, kappa) pairs
        # by building one config, not one per replication
        grid = small_discrete_grid(beta_values=(0.0, 1.0), T_values=(60.0, 120.0), n_reps=50)
        grid.validate()
        built, blocks = [], []
        for cls in (RngStream, DgpDiscreteConfig):
            init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, init=init: built.append(self) or init(self))

        def simulate(config, master_seed, stream_indices, *args):
            blocks.append(len(stream_indices))
            return simulate_discrete_batch(config, master_seed, stream_indices, *args)

        monkeypatch.setattr(experiments, "simulate_discrete_batch", simulate)
        monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 70 * 60)
        run_grid(grid)
        assert sum(blocks) == 2 * 2 * 2 * 50 and len(blocks) == 9
        assert not any(isinstance(b, RngStream) for b in built)
        assert 0 < len(built) <= 3 * len(blocks)

    def test_dense_table_cells(self):
        # the dense counts read back as one CellResult per (combination, method)
        grid = small_discrete_grid(
            beta_values=(1.0, 0.0), kappa_values=(50.0, 0.0), T_values=(120.0, 60.0),
            vol_models=("SB", "CNST"), methods=("t08_tau_o", "tau_o"), n_reps=6,
        )
        table = run_grid(grid)
        assert table.counts.shape == (16, 2, 2)
        assert table.methods == ("t8_tau_o", "tau_o")
        cells = table.cells
        assert len(cells) == 32
        assert list(cells) == sorted(cells, key=experiments.CellKey.sort_key)
        for c, (beta, kappa, T, vol) in enumerate(
            (b, k, t, v) for b in grid.beta_values for k in grid.kappa_values
            for t in grid.T_values for v in grid.vol_models
        ):
            for m, method in enumerate(table.methods):
                rejections, degenerate = table.counts[c, m]
                cell = cells[experiments.CellKey(beta, kappa, T, vol, method)]
                assert cell == experiments.CellResult(6, int(rejections), int(degenerate))
                assert type(cell.rejections) is int and type(cell.degenerate) is int
                assert table.frequency(int(beta), kappa, int(T), vol, method) == cell.frequency
                assert cell == run_cell(grid, beta, kappa, T, vol, method)
        with pytest.raises(TypeError):
            cells[next(iter(cells))] = None  # read-only
        with pytest.raises(KeyError):
            table.frequency(0.5, 0.0, 60.0, "CNST", "tau_o")
        text = table.to_aligned_text()
        assert text.count("vol=SB beta=1") == 1 and "k=50,T=120" in text
        # a panel per (vol, beta): a header, a row per method, a blank line
        assert len(text.split("\n")) == 2 * 2 * (1 + 2 + 1)

    def test_empty_table(self):
        # what a run without cells writes, as the CLI tests rely on
        table = experiments.McTable(n_reps=5)
        assert dict(table.cells) == {}
        assert table.to_csv_text() == "beta,kappa,T,vol,method,freq,mc_se,degenerate_count\n"
        assert table.to_aligned_text() == ""

    @pytest.mark.parametrize(
        "axis,values",
        [("beta_values", (0.0, -0.0)), ("kappa_values", (50.0, 0.0, 50.0)),
         ("T_values", (60.0, 60)), ("vol_models", ("CNST", "CNST"))],
    )
    def test_repeated_coordinates(self, axis, values):
        # one table row per coordinate: a repeated value would be run twice
        with pytest.raises(SchemaError, match="more than once"):
            small_discrete_grid(**{axis: values}).validate()

    def test_one_model_per_combination(self):
        # the config carries the model only; the replications differ by stream
        grid = small_discrete_grid(rho=-0.5, endogeneity="eta")
        config = grid.dgp_config(0.0, 50.0, 60.0, "CNST")
        assert config == DgpDiscreteConfig(n_obs=60, kappa_bar=50.0, rho=-0.5, endogeneity="eta")

    def test_run_grid_builds_each_config_once(self, monkeypatch):
        # validation builds every combination's config and the run reuses it
        built = []
        dgp_config = ExperimentGrid.dgp_config

        def counted(self, *combination):
            built.append(combination)
            return dgp_config(self, *combination)

        monkeypatch.setattr(ExperimentGrid, "dgp_config", counted)
        grid = small_discrete_grid(
            beta_values=(0.0, 1.0, 2.0), T_values=(60.0, 120.0), vol_models=("CNST", "SB"), n_reps=3
        )
        table = run_grid(grid)
        assert len(built) == len(set(built)) == 3 * 2 * 2 * 2
        monkeypatch.undo()
        assert table.to_csv_text() == run_grid(grid).to_csv_text()


ENV = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).resolve().parents[1])}


@pytest.fixture
def own_children():
    """This thread's kept children are ended before and after the test, so
    the ones it starts are forked under its patches and go with them."""
    experiments._end_children()
    yield
    experiments._end_children()


def kept_pids():
    """The pids of this thread's kept children, after checking that they
    are alive and are every live child of this process."""
    kept = [child for child, _ in experiments._kept()]
    assert all(child.is_alive() for child in kept)
    assert set(multiprocessing.active_children()) == set(kept)
    return [child.pid for child in kept]


def alive(pid):
    """Whether ``pid`` is a process that has not exited (Linux)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def in_new_thread(work):
    """``work()`` run in a new thread, which owns a new, empty block workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(work()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def continuous_grid(**overrides):
    kw = dict(
        dgp_kind="continuous", beta_values=(0.0, 0.02), kappa_values=(0.0, 5.0), T_values=(5.0,),
        vol_models=("RS", "GBM"), methods=("t8", "tau"), n_reps=7, master_seed=3,
    )
    kw.update(overrides)
    return ExperimentGrid(**kw)


class TestBlockWorkspace:
    """run_grid writes each block's arrays into the workspace its fan-out
    hands the block's share, which later blocks of any shape overwrite."""

    def test_public_batches_are_not_overwritten(self):
        discrete = simulate_discrete_batch(DgpDiscreteConfig(n_obs=60, kappa_bar=5.0, vol_model="RS"), 4, range(30))
        continuous = simulate_continuous_batch(DgpContinuousConfig(years=5.0, vol_model="GBM"), 4, range(30))

        def arrays():
            out = [discrete.y, discrete.x_lag, discrete.x_level, continuous.y, continuous.x_lag]
            out += [t for parity in (None, "even", "odd") for t in discrete.terms(parity)]
            out += list(continuous.terms(None))
            out += [v for batch in (discrete, continuous) for v in batch.residual_variance(True)]
            return out

        before = [a.copy() for a in arrays()]
        # larger blocks of both designs, in this thread's workspace
        run_grid(small_discrete_grid(T_values=(60.0, 240.0), vol_models=("RS", "SB"), n_reps=90))
        run_grid(continuous_grid(T_values=(5.0, 20.0), n_reps=30))
        d2_study(1000, 200)
        for a, b in zip(arrays(), before):
            assert np.array_equal(a, b)

    def test_block_shapes_in_either_order(self, monkeypatch):
        # grids of different (T, rows) shapes in both designs, run smaller
        # first, larger first and mixed, each against fresh runs: a new
        # thread's workspace and a fan-out; then consecutive fan-outs at 2
        # and 3 workers under block caps that regrow the kept children's
        # workspaces
        grids = [
            small_discrete_grid(n_reps=11),
            small_discrete_grid(T_values=(240.0, 120.0), vol_models=("RS", "SB"), n_reps=150),
            continuous_grid(),
            continuous_grid(T_values=(20.0, 10.0), vol_models=("RS", "GBM", "CNST"), n_reps=25),
        ]
        fresh = [in_new_thread(lambda: run_grid(grid).to_csv_text()) for grid in grids]
        for grid, text in zip(grids, fresh):
            assert run_grid(grid, workers=2).to_csv_text() == text
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2]):
            for i in order:
                assert run_grid(grids[i]).to_csv_text() == fresh[i]
        for cap in (20 * 240, 400 * 240):
            monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", cap)
            for workers, order in ((2, [1, 0, 3, 2]), (3, [0, 3, 1, 2])):
                for i in order:
                    assert run_grid(grids[i], workers=workers).to_csv_text() == fresh[i]
        assert len(kept_pids()) == 2

    def test_threads_own_their_workspace(self):
        # more threads than cores, switching often: each thread's blocks go
        # to its own workspace, so concurrent grids of different shapes
        # still give their serial cells
        grids = [small_discrete_grid(n_reps=n, vol_models=("RS",)) for n in (13, 40)]
        grids += [continuous_grid(n_reps=n) for n in (9, 31)]
        expected = [run_grid(grid).to_csv_text() for grid in grids]
        results = [[] for _ in grids]
        threads = [
            threading.Thread(target=lambda g=grid, r=out: r.extend(run_grid(g).to_csv_text() for _ in range(3)))
            for grid, out in zip(grids, results)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[text] * 3 for text in expected]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children are forked on Linux only")
    def test_forked_process_forgets_children(self):
        # after a fan-out, a process forked from this one starts with no
        # child: the two then fan out at once, each through children of its
        # own that it keeps, and each gets its serial cells
        mine = continuous_grid(T_values=(5.0, 10.0), n_reps=11)
        theirs = small_discrete_grid(T_values=(60.0, 120.0), vol_models=("RS", "CNST"), n_reps=17)
        serial = [run_grid(grid).to_csv_text() for grid in (mine, theirs)]
        run_grid(mine, workers=2)
        inherited = kept_pids()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the forked process never returns into the test runner
            try:
                reply = {"fresh": not experiments._kept(), "cells": [], "kept": []}
                for _ in range(6):
                    reply["cells"].append(run_grid(theirs, workers=2).to_csv_text() == serial[1])
                    reply["kept"].append([child.pid for child, _ in experiments._kept()])
                experiments._end_children()  # reaped here, as this process ends without its atexit hooks
            except BaseException as exc:
                reply = {"error": repr(exc)}
            os.write(write, json.dumps(reply).encode())
            os._exit(0)
        os.close(write)
        try:
            for _ in range(6):
                assert run_grid(mine, workers=2).to_csv_text() == serial[0]
        finally:
            with os.fdopen(read) as pipe:
                reply = json.loads(pipe.read())
            _, status = os.waitpid(pid, 0)
        assert status == 0 and reply["fresh"] and reply["cells"] == [True] * 6, reply
        own = reply["kept"][0]
        assert len(own) == 1 and own[0] not in inherited and reply["kept"] == [own] * 6
        assert kept_pids() == inherited

    def test_repeated_run_grows_nothing(self):
        grid = small_discrete_grid(T_values=(60.0, 600.0), vol_models=("RS",), n_reps=50)

        def buffers():
            return {name: buffer.ctypes.data for name, buffer in experiments._THREAD.workspace._buffers.items()}

        def twice():
            run_grid(grid)
            first = buffers()
            run_grid(grid)
            return first, buffers()

        first, second = in_new_thread(twice)
        assert first and second == first

    def test_d2_study_keeps_no_workspace_memory(self):
        # a study runs in a workspace of its own: the thread's workspace
        # keeps the buffers it had and holds none of the study's paths
        def buffers():
            return {str(name): b.nbytes for name, b in experiments._THREAD.workspace._buffers.items()}

        def study():
            run_grid(small_discrete_grid(T_values=(240.0,)))
            before = buffers()
            d2_study(1000, 20000)
            return before, buffers()

        before, after = in_new_thread(study)
        assert before and after == before and not [name for name in after if name.startswith("brownian.")]


class TestD2Study:
    def test_threshold_default_is_two_group_critical_value(self):
        assert default_d2_threshold() == pytest.approx(12.7062, abs=5e-4)

    def test_small_run_contract(self):
        res = d2_study(2000, 200, master_seed=5)
        assert res.min_value > 1.0
        assert 0.0 <= res.tail_prob <= 1.0
        assert res.bin_counts.sum() == res.n_draws
        assert res.threshold == pytest.approx(default_d2_threshold())

    def test_trivial_threshold(self):
        res = d2_study(1000, 200, threshold=1.0, master_seed=6)
        assert res.tail_prob == 1.0

    def test_deterministic_and_extensible(self):
        a = d2_study(2000, 200, master_seed=7)
        b = d2_study(2000, 200, master_seed=7)
        assert a.tail_prob == b.tail_prob and a.min_value == b.min_value
        # extending the draw count preserves the existing chunks
        c = d2_study(3000, 200, master_seed=7)
        assert c.min_value <= a.min_value

    def test_domain(self):
        with pytest.raises(DomainError):
            d2_study(10, 200)
        with pytest.raises(DomainError):
            d2_study(2000, 10)
        for threshold in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DomainError, match="threshold must be finite"):
                d2_study(1000, 200, threshold=threshold)
