"""Hostile inputs through the command line, in process.

Every run of ``main`` on generated argv and generated CSV and JSON files
exits 0, or exits 2 with exactly one ``error:`` line on stderr and no
traceback.  A request beyond a size bound (``n_reps``, ``T_values``,
``--draws``, ``--steps``, ``--n-obs``, ``--years``) exits 2 before any Monte
Carlo block runs or any Brownian path is drawn.  Accepted sizes stay tiny:
CSVs of at most 40 rows, grids of 2 replications of at most 60
observations, samples of at most 240 observations, and d2 at 1000 draws of
at most 200 steps.
"""

import contextlib
import dataclasses
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchypred import experiments
from cauchypred.cli import main
from cauchypred.dgp import MAX_N_OBS
from cauchypred.experiments import MAX_D2_DRAWS, ExperimentGrid
from cauchypred.inference import SIDES

# what a numeric CSV cell can hold after a spreadsheet export or a hand edit
HOSTILE_CELLS = ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "1e300", "5e-324", "", " ", "abc", "0x10"]
# a JSON value of each kind, to put where a field wants another
WRONG_VALUES = [True, False, 0, -1, 2.5, "x", "0.05", [], [True], ["x"], [1.5], None, {}, "NaN", "Infinity", "1e400"]
# tokens json.dumps cannot write from a Python value; written in place of their string
JSON_TOKENS = {'"NaN"': "NaN", '"Infinity"': "Infinity", '"1e400"': "1e400"}
# experiment names that would put an output file outside --out, or name no file
PATH_NAMES = ["../escaped", "sub/escaped", "sub\\escaped", ".", "..", "a\0b"]
OVERSIZE_REPS = [10**12, 2**63, 10**30]
OVERSIZE_T = {"discrete": [[10**7], [60, 10**9]], "continuous": [[1e7], [5, 1e300]]}
CONFIGS = {
    "discrete": dict(
        dgp_kind="discrete", beta_values=[0.0], kappa_values=[0.0, 50.0], T_values=[60],
        vol_models=["CNST"], methods=["tau_o", "t4_tau_o"], n_reps=2, master_seed=11,
    ),
    "continuous": dict(
        dgp_kind="continuous", beta_values=[0.0], kappa_values=[0.0], T_values=[5],
        vol_models=["CNST", "GBM"], methods=["tau", "t4"], n_reps=2, master_seed=11,
    ),
}
KEYS = ["name", "unknown_key"] + [f.name for f in dataclasses.fields(ExperimentGrid)]


def flag(name, value):
    return [] if value is None else [f"--{name}={value}"]


@st.composite
def csv_test_command(draw):
    """``test`` on a CSV file of a random walk x and noise y, with at most
    one hostile feature in the file or the flags."""
    hostility = draw(st.sampled_from(  # "none" twice: more runs reach a test statistic
        ["none", "none", "cells", "duplicate", "unsorted", "bom", "few_rows", "header", "flags", "constant"]
    ))
    rows = draw(st.integers(10, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.cumsum(gen.standard_normal(rows)) if hostility != "constant" else np.ones(rows)
    cells = [[str(1950 + t), repr(float(y)), repr(float(x[t]))] for t, y in enumerate(gen.standard_normal(rows))]
    header = "date,y,x"
    if hostility == "cells":
        for row, col, cell in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, 2),
                                                      st.sampled_from(HOSTILE_CELLS)), min_size=1, max_size=3)):
            cells[row][col] = cell
    elif hostility == "duplicate":
        cells[-1][0] = cells[-2][0]
    elif hostility == "unsorted":
        i = draw(st.integers(0, rows - 2))
        cells[i][0], cells[i + 1][0] = cells[i + 1][0], cells[i][0]
    elif hostility == "bom":
        header = "\ufeff" + header
    elif hostility == "few_rows":
        cells = cells[: draw(st.integers(0, 9))]
    elif hostility == "header":
        header = draw(st.sampled_from(["date,y", "date,y,x,x", "", "date;y;x", "Date,Y,X"]))
    text = header + "\n" + "".join(",".join(row) + "\n" for row in cells)
    method = draw(st.sampled_from(["hybrid", "tq"]))
    q = draw(st.sampled_from([2, 4, 8])) if method == "tq" else None
    parity, alpha, sided = None, 0.05, draw(st.sampled_from(SIDES))
    intercept = draw(st.booleans())
    if intercept:
        parity = draw(st.sampled_from([None, "even", "odd"]))
    if hostility == "flags":
        name, value = draw(st.sampled_from(
            [("q", v) for v in (-1, 0, 1, 100)] + [("alpha", v) for v in (0, 1, 1.5, -0.1, "nan", "inf", 1e-300)]
            + [("parity", "odd"), ("q", 4)]
        ))
        if name == "q":
            q = value
        elif name == "alpha":
            alpha = value
        else:  # --parity without --intercept
            parity, intercept = value, False
    argv = ["test", "@data.csv", f"--method={method}", f"--sided={sided}", f"--alpha={alpha}"]
    argv += flag("q", q) + flag("parity", parity) + (["--intercept"] if intercept else [])
    return argv, {"data.csv": text}, False


@st.composite
def table_command(draw):
    """``table`` on a tiny experiment file, with at most one hostile
    feature in the file or the flags."""
    kind = draw(st.sampled_from(sorted(CONFIGS)))
    config = {"name": "hostile", **CONFIGS[kind]}
    hostility = draw(st.sampled_from(["none", "wrong_type", "name", "missing", "oversize", "text", "workers", "seed"]))
    if hostility == "wrong_type":
        config[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(WRONG_VALUES))
    elif hostility == "name":
        config["name"] = draw(st.sampled_from(PATH_NAMES))
    elif hostility == "missing":
        del config[draw(st.sampled_from(sorted(config)))]
    elif hostility == "oversize":
        key = draw(st.sampled_from(["n_reps", "T_values"]))
        config[key] = draw(st.sampled_from(OVERSIZE_REPS if key == "n_reps" else OVERSIZE_T[kind]))
    text = json.dumps(config)
    for quoted, token in JSON_TOKENS.items():
        text = text.replace(quoted, token)
    if hostility == "text":
        text = draw(st.sampled_from(["\ufeff" + text, '{"tool": "cauchypred", "config": ' + text + "}",
                                     "", "{", "[]", "null", text.replace("11", "1e400")]))
    workers = draw(st.sampled_from([0, -1] if hostility == "workers" else [None, 1, 2]))
    seed = draw(st.sampled_from([-1, 2**64] if hostility == "seed" else [None, 3]))
    argv = ["table", "--config=@exp.json", "--out=@out"] + flag("workers", workers) + flag("seed", seed)
    return argv, {"exp.json": text}, hostility == "oversize"


@st.composite
def simulate_command(draw):
    """``simulate`` of a small sample, with at most one hostile flag."""
    kind = draw(st.sampled_from(["discrete", "continuous"]))
    horizon = "n-obs" if kind == "discrete" else "years"
    values = {
        "vol": [None, "CNST", "SB", "RS"], "kappa": [None, 0, 5, 50], "beta": [None, 0.5, -0.5],
        "seed": [None, 7], horizon: [None, 24, 120] if kind == "discrete" else [None, 2, 10],
    }
    hostile = {
        "vol": ["XX", "GBM" if kind == "discrete" else ""], "kappa": [-1, "nan", 1e300, 10**6],
        "beta": ["-inf", 1e300], "seed": [-1, 2**64],
        horizon: [1, 0, -3] if kind == "discrete" else [0.1, 0, -1, "nan", "inf"],
    }
    oversize = [MAX_N_OBS + 1, 10**12] if kind == "discrete" else [1e7, 1e300]
    hostility = draw(st.sampled_from(["none", "oversize", "other_design", *sorted(hostile)]))
    chosen = {name: draw(st.sampled_from(options)) for name, options in values.items()}
    if hostility == "oversize":
        chosen[horizon] = draw(st.sampled_from(oversize))
    elif hostility == "other_design":
        chosen["years" if kind == "discrete" else "n-obs"] = 24
    elif hostility != "none":
        chosen[hostility] = draw(st.sampled_from(hostile[hostility]))
    argv = ["simulate", f"--dgp={kind}"] + [arg for name, value in chosen.items() for arg in flag(name, value)]
    return argv, {}, hostility == "oversize"


@st.composite
def d2_command(draw):
    """``d2`` at 1000 draws of at most 200 steps, with at most one hostile
    size, threshold or seed."""
    hostility = draw(st.sampled_from(["none", "too_small", "oversize", "threshold", "seed"]))
    draws, steps = 1000, draw(st.sampled_from([100, 150, 200]))
    if hostility == "too_small":
        draws, steps = draw(st.sampled_from([(999, 200), (0, 100), (-1, 100), (1000, 99), (1000, 0), (1000, -5)]))
    elif hostility == "oversize":
        draws, steps = draw(st.sampled_from(
            [(MAX_D2_DRAWS + 1, 100), (10**12, 200), (1000, MAX_N_OBS + 1), (1000, 10**9), (10**12, 10**9)]
        ))
    threshold = draw(st.sampled_from([0, "nan", "inf", "-inf"] if hostility == "threshold" else [None, 1.0]))
    seed = draw(st.sampled_from([-1, 2**64] if hostility == "seed" else [None, 0]))
    argv = ["d2", f"--draws={draws}", f"--steps={steps}"] + flag("threshold", threshold) + flag("seed", seed)
    return argv, {}, hostility == "oversize"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.mark.parametrize("command", [csv_test_command, table_command, simulate_command, d2_command])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_main_exits_0_or_2_with_one_error_line(workdir, command, data):
    argv, files, oversize = data.draw(command())
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("@", f"{workdir}/") for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(experiments, "_run_combination", wraps=experiments._run_combination) as blocks,
        mock.patch.object(experiments, "brownian_paths", wraps=experiments.brownian_paths) as paths,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    # every file a run writes is under --out
    assert {p.name for p in workdir.iterdir()} <= {"data.csv", "exp.json", "out"}, argv
    stderr = err.getvalue()
    if code == 0:
        assert stderr == "", (argv, stderr)
    else:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, stderr)
    if oversize:
        assert code == 2, argv
        assert blocks.call_count == paths.call_count == 0, argv
