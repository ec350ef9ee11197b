"""End-to-end runs of the command-line interface on small inputs."""

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from cauchypred import DgpDiscreteConfig, RegressionSample, RngStream, experiments, simulate_discrete
from cauchypred.cli import build_parser, main
from cauchypred.dataio import bundled_config_names, parse_csv
from cauchypred.dgp import MAX_N_OBS
from cauchypred.experiments import McTable, evaluate_method, parse_method

GOLDEN = Path(__file__).parent / "golden"


def write_dataset(tmp_path, n=60, beta=0.0, seed=0, name="series.csv"):
    gen = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.cumsum(gen.standard_normal(n))])
    y = np.empty(n)
    for t in range(n):
        y[t] = beta * x[t] + gen.standard_normal()
    lines = ["date,y,x"]
    for t in range(n):
        lines.append(f"{1950 + t},{float(y[t])!r},{float(x[t])!r}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def small_config(tmp_path):
    config = {
        "name": "cli_small",
        "dgp_kind": "discrete",
        "beta_values": [0.0],
        "kappa_values": [0.0, 50.0],
        "T_values": [60],
        "vol_models": ["CNST"],
        "methods": ["tau_o", "t8_tau_o"],
        "n_reps": 25,
        "master_seed": 11,
    }
    path = tmp_path / "cli_small.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestTestCommand:
    @pytest.mark.parametrize(
        "flags,label",
        [
            (["--method", "hybrid"], "tau"),
            (["--method", "hybrid", "--intercept"], "tau_o"),
            (["--method", "tq", "--q", "12"], "t12"),
            (["--method", "tq", "--q", "12", "--intercept"], "t12_tau_o"),
            (["--method", "hybrid", "--intercept", "--parity", "even"], "tau_e"),
            (["--method", "tq", "--q", "12", "--intercept", "--parity", "even"], "t12_tau_e"),
        ],
    )
    def test_flags_name_the_dispatched_method(self, tmp_path, capsys, flags, label):
        csv = write_dataset(tmp_path, n=600, seed=3)
        out_dir = tmp_path / "out"
        assert main(["test", str(csv), *flags, "--out", str(out_dir)]) == 0
        spec = parse_method(label)
        assert capsys.readouterr().out.startswith(f"{spec.label}: ")
        expected = evaluate_method(spec, parse_csv(csv).to_regression_sample(), 0.05, "two")
        row = (out_dir / "test_result.csv").read_text().splitlines()[1].split(",")
        assert row[:3] == [spec.label, repr(expected.statistic), repr(expected.p_value)]

    @pytest.mark.parametrize("case", sorted(json.loads((GOLDEN / "cli_test_outputs.json").read_text())))
    def test_output_matches_golden(self, tmp_path, capsys, case):
        # the printed line and the result file of the four benchmark flag
        # sets on a null and a strong-signal series, byte for byte
        golden = json.loads((GOLDEN / "cli_test_outputs.json").read_text())[case]
        seed, beta, *flags = case.split(" ")
        csv = write_dataset(
            tmp_path, n=600, beta=float(beta.partition("=")[2]), seed=int(seed.partition("=")[2])
        )
        assert main(["test", str(csv), *flags]) == 0
        assert capsys.readouterr().out == golden["stdout"]
        assert main(["test", str(csv), *flags, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "test_result.csv").read_text() == golden["csv"]

    def test_hybrid_runs(self, tmp_path, capsys):
        csv = write_dataset(tmp_path)
        assert main(["test", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "tau:" in out and "p=" in out

    def test_strong_signal_rejects_one_sided(self, tmp_path, capsys):
        csv = write_dataset(tmp_path, n=600, beta=0.1, seed=4)
        assert main(["test", str(csv), "--sided", "right"]) == 0
        assert "-> reject" in capsys.readouterr().out

    def test_group_t_with_intercept(self, tmp_path, capsys):
        csv = write_dataset(tmp_path, n=200, seed=5)
        code = main(
            ["test", str(csv), "--method", "tq", "--q", "8", "--intercept", "--parity", "even"]
        )
        assert code == 0
        assert "t8_tau_e:" in capsys.readouterr().out

    def test_q_larger_than_sample_fails_cleanly(self, tmp_path, capsys):
        csv = write_dataset(tmp_path, n=12)
        code = main(["test", str(csv), "--method", "tq", "--q", "40"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["y", "x"])
    def test_huge_values_fail_cleanly(self, tmp_path, capsys, column):
        # past the magnitude bound a sum of squares would overflow and the
        # test would print a wrong result instead of failing
        csv = write_dataset(tmp_path, n=240, seed=6)
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        col = rows[0].index(column)
        for row in rows[1:]:
            row[col] = repr(1e160 * float(row[col]))
        csv.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
        for method in ("hybrid", "tq"):
            flags = ["--method", method] + (["--q", "8"] if method == "tq" else [])
            assert main(["test", str(csv), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "too large" in captured.err

    def test_builds_one_sample(self, tmp_path, capsys, monkeypatch):
        # the one sample is validated once, whichever test runs on it
        built = []
        post_init = RegressionSample.__post_init__
        monkeypatch.setattr(RegressionSample, "__post_init__", lambda self: built.append(self) or post_init(self))
        csv = write_dataset(tmp_path, n=120)
        assert main(["test", str(csv), "--method", "tq", "--q", "8", "--intercept"]) == 0
        assert len(built) == 1 and "t8_tau_o" in capsys.readouterr().out

    def test_missing_q(self, tmp_path, capsys):
        csv = write_dataset(tmp_path)
        assert main(["test", str(csv), "--method", "tq"]) != 0

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--method", "hybrid", "--q", "12"], "--q applies only to --method tq"),
            (["--method", "hybrid", "--intercept", "--q", "12"], "--q applies only"),
            (["--method", "hybrid", "--parity", "even"], "--parity applies only with --intercept"),
            (["--method", "tq", "--q", "12", "--parity", "odd"], "--parity applies only"),
        ],
    )
    def test_flag_without_effect_is_an_error(self, tmp_path, capsys, flags, message):
        csv = write_dataset(tmp_path)
        assert main(["test", str(csv), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_writes_csv_result(self, tmp_path):
        csv = write_dataset(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["test", str(csv), "--out", str(out_dir)]) == 0
        text = (out_dir / "test_result.csv").read_text()
        assert text.startswith("method,statistic,p_value")


class TestCliNullSize:
    def test_pure_noise_rejection_rate(self, tmp_path, capsys):
        # size check through the whole CLI path: 500 independent noise
        # datasets, one-sided 5% hybrid test
        rejections = 0
        n_seeds = 500
        for seed in range(n_seeds):
            csv = write_dataset(tmp_path, n=600, beta=0.0, seed=10_000 + seed, name="n.csv")
            assert main(["test", str(csv), "--sided", "right"]) == 0
            out = capsys.readouterr().out
            rejections += "-> reject" in out
        rate = rejections / n_seeds
        assert rate == pytest.approx(0.05, abs=0.03)


class TestTableCommand:
    def test_run_and_reproduce(self, tmp_path):
        config = small_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["table", "--config", str(config), "--out", str(out1)]) == 0
        cells = (out1 / "cli_small_cells.csv").read_text()
        assert cells.startswith("beta,kappa,T,vol,method,freq,mc_se,degenerate_count")
        # rerun from the emitted manifest: identical bytes
        manifest = out1 / "cli_small_manifest.json"
        assert main(["table", "--config", str(manifest), "--out", str(out2)]) == 0
        assert (out2 / "cli_small_cells.csv").read_bytes() == cells.encode()

    def test_byte_order_mark_config(self, tmp_path):
        # editors that save "UTF-8 with BOM" start the file with U+FEFF
        config = small_config(tmp_path)
        marked = tmp_path / "marked" / "cli_small.json"
        marked.parent.mkdir()
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert main(["table", "--config", str(config), "--out", str(tmp_path / "plain")]) == 0
        assert main(["table", "--config", str(marked), "--out", str(tmp_path / "bom")]) == 0
        assert (tmp_path / "bom" / "cli_small_cells.csv").read_bytes() == (
            tmp_path / "plain" / "cli_small_cells.csv"
        ).read_bytes()

    def test_worker_flag_does_not_change_output(self, tmp_path):
        config = small_config(tmp_path)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w4"
        assert main(["table", "--config", str(config), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["table", "--config", str(config), "--out", str(out2), "--workers", "4"]) == 0
        assert (out1 / "cli_small_cells.csv").read_bytes() == (
            out2 / "cli_small_cells.csv"
        ).read_bytes()

    def test_grid_validated_once(self, tmp_path, monkeypatch, capsys):
        # loading the file validates the grid, with --seed applied first;
        # run_grid reuses that result, so each combination's DGP config is
        # built once per invocation
        built = []
        dgp_config = experiments.ExperimentGrid.dgp_config
        monkeypatch.setattr(
            experiments.ExperimentGrid, "dgp_config", lambda grid, *c: built.append(c) or dgp_config(grid, *c)
        )
        config = small_config(tmp_path)
        for seed, master_seed in ((), 11), (("--seed", "5"), 5):
            built.clear()
            assert main(["table", "--config", str(config), "--out", str(tmp_path), *seed]) == 0
            assert built == [(0.0, 0.0, 60.0, "CNST"), (0.0, 50.0, 60.0, "CNST")]
            manifest = json.loads((tmp_path / "cli_small_manifest.json").read_text())
            assert manifest["config"]["master_seed"] == master_seed
        capsys.readouterr()
        assert main(["table", "--config", str(config), "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_schema_error_before_compute(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads(small_config(tmp_path).read_text())
        payload["vol_modl"] = ["CNST"]
        del payload["vol_models"]
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["table", "--config", str(bad), "--out", str(tmp_path / "x")]) != 0
        assert "vol_modl" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "sub\\escaped", ".", "..", "a\0b"], ids=repr)
    def test_name_outside_out_writes_nothing(self, tmp_path, capsys, name):
        # the name starts each output file's name: one that is not a plain
        # file name fails at load, before --out is made
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(small_config(tmp_path).read_text()), "name": name}), encoding="utf-8")
        assert main(["table", "--config", str(bad), "--out", str(tmp_path / "dir" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: name must be a plain file name")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json", "cli_small.json"]

    def test_optional_key_type_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads(small_config(tmp_path).read_text())
        payload["alpha"] = "abc"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["table", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: alpha")

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_manifest_matches_golden(self, name, tmp_path, monkeypatch):
        # the config echo of every bundled config, written by the table
        # command itself; the simulation is skipped
        monkeypatch.setattr(experiments, "run_grid", lambda grid, workers: McTable(n_reps=grid.n_reps))
        assert main(["table", "--config", name, "--out", str(tmp_path)]) == 0
        written = (tmp_path / f"{name}_manifest.json").read_bytes()
        assert written == (GOLDEN / f"{name}_manifest.json").read_bytes()

    def test_bundled_name_resolves(self, tmp_path, capsys):
        # bundled config exists; run is too heavy here, so just check the
        # resolution error path distinguishes names
        assert main(["table", "--config", "no_such", "--out", str(tmp_path / "y")]) != 0
        assert "bundled" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_make_no_directory(self, tmp_path, capsys, workers):
        out = tmp_path / "wtest" / "out"
        assert main(["table", "--config", "table1_cnst", "--workers", workers, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: workers must be an int from 1 to MAX_WORKERS = 256, got {workers}\n"
        assert not (tmp_path / "wtest").exists()

    @pytest.mark.parametrize("command", ["table", "d2"])
    def test_workers_above_the_bound_start_no_child(self, tmp_path, capsys, command):
        # checked by the one rule of run_grid and d2_study, before the
        # output directory is made or any child starts (a grid of one block
        # and a study of two chunks, so that even without the rule at most
        # one child would start)
        command = ["table", "--config", str(small_config(tmp_path))] if command == "table" else ["d2", "--draws", "2000"]
        children = set(multiprocessing.active_children())
        out = tmp_path / "wtest" / "out"
        assert main([*command, "--workers", "1000000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: workers must be an int from 1 to MAX_WORKERS = 256, got 1000000\n"
        assert not (tmp_path / "wtest").exists()
        assert set(multiprocessing.active_children()) == children


    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    @pytest.mark.parametrize(
        "kind,T,method",
        [("continuous", 5, "t100"), ("discrete", 60, "t40_tau_o"), ("continuous", 0.5, "t8")],
    )
    def test_too_few_terms_fail_at_load(self, tmp_path, capsys, monkeypatch, workers, kind, T, method):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_combination", no_block)
        payload = json.loads(small_config(tmp_path).read_text())
        # kappa_bar 5 is inside [0, 2 years / delta] at 0.5 years, so the terms rule is the first broken
        payload.update(dgp_kind=kind, T_values=[T, 240], kappa_values=[0.0, 5.0], methods=[method], sided="two")
        config = tmp_path / "few.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["table", "--config", str(config), "--out", str(tmp_path / "o"), *workers]) == 2
        assert capsys.readouterr().err.startswith(f"error: method '{method}' cannot run at n_obs = ")


    def test_grid_beyond_memory_fails_at_load(self, tmp_path, capsys, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_combination", no_block)
        payload = json.loads(small_config(tmp_path).read_text())
        payload.update(n_reps=10**12)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["table", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_reps = 1000000000000 asks for ")
        assert captured.err.count("\n") == 1 and "MAX_GRID_ELEMENTS" in captured.err


def _unreadable(tmp_path, case):
    """The arguments of a command whose file cannot be read, or whose
    output directory cannot be made."""
    binary = tmp_path / "latin1.dat"
    binary.write_bytes("date,y,x\n1,0.5,\xe9t\xe9\n".encode("latin-1"))
    existing = write_dataset(tmp_path)
    config = small_config(tmp_path)
    return {
        "test directory": ["test", str(tmp_path)],
        "test non-UTF-8": ["test", str(binary)],
        "table config directory": ["table", "--config", str(tmp_path), "--out", str(tmp_path / "o")],
        "table config non-UTF-8": ["table", "--config", str(binary), "--out", str(tmp_path / "o")],
        "test out is a file": ["test", str(existing), "--out", str(existing)],
        "table out is a file": ["table", "--config", str(config), "--out", str(existing)],
    }[case]


@pytest.mark.parametrize("case", [
    "test directory", "test non-UTF-8", "table config directory", "table config non-UTF-8",
    "test out is a file", "table out is a file",
])
def test_unreadable_paths_fail_cleanly(tmp_path, capsys, monkeypatch, case):
    # the output directory is made before the grid runs
    monkeypatch.setattr(experiments, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
    assert main(_unreadable(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestSimulateCommand:
    @pytest.mark.parametrize("flags,field", [
        (["--years", "nan"], "years"),
        (["--years", "inf"], "years"),
        (["--kappa", "nan"], "kappa_bar"),
        (["--beta", "inf"], "beta"),
        (["--dgp", "discrete", "--kappa", "nan"], "kappa_bar"),
        (["--dgp", "discrete", "--beta=-inf"], "beta"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_non_finite_fails_cleanly(self, capsys, flags, field):
        assert main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be finite")

    @pytest.mark.parametrize("flags,message", [
        (["--years", "1e300"], "years / delta must give at most MAX_N_OBS"),
        (["--dgp", "discrete", "--n-obs", str(MAX_N_OBS + 1)], "n_obs must be at most MAX_N_OBS"),
    ], ids=["years", "n_obs"])
    def test_horizon_bound_fails_cleanly(self, capsys, flags, message):
        # a horizon beyond MAX_N_OBS observations fails before any array is made
        assert main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags,message", [
        (["--dgp", "discrete", "--years", "5"], "--years applies only to --dgp continuous"),
        (["--dgp", "continuous", "--n-obs", "50"], "--n-obs applies only to --dgp discrete"),
    ], ids=["years", "n_obs"])
    def test_other_designs_horizon_is_an_error(self, capsys, flags, message):
        assert main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_discrete_dump(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--dgp", "discrete", "--n-obs", "24", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,y,x_lag,x_level"
        assert len(lines) == 25

    def test_discrete_dump_rebuilds_the_sample(self, tmp_path, capsys):
        # x_lag holds x_0..x_{T-1} and x_level x_1..x_T, so the two columns
        # together give every level, and the dump is a `test` input
        out = tmp_path / "dump.csv"
        assert main(["simulate", "--dgp", "discrete", "--n-obs", "24", "--kappa", "40", "--seed", "7",
                     "--out", str(out)]) == 0
        _, y, x_lag, x_level = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
        rebuilt = RegressionSample(y, x_lag, x_level=[x_lag[0], *x_level])
        sample = simulate_discrete(DgpDiscreteConfig(n_obs=24, kappa_bar=40.0), RngStream(7))
        for name in ("y", "x_lag", "x_level"):  # bit for bit
            assert getattr(rebuilt, name).tobytes() == getattr(sample, name).tobytes()
        capsys.readouterr()
        assert main(["test", str(out), "--date-col", "t", "--x-col", "x_level", "--intercept"]) == 0
        assert capsys.readouterr().out.startswith("tau_o: statistic=")

    def test_continuous_stdout(self, capsys):
        assert main(["simulate", "--dgp", "continuous", "--years", "2", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,y,x_lag"
        assert len(lines) == 25  # 24 monthly observations

    def test_replay_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            main(["simulate", "--dgp", "discrete", "--n-obs", "30", "--seed", "9",
                  "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()


class TestD2Command:
    def test_small_run(self, tmp_path, capsys):
        out_dir = tmp_path / "d2"
        code = main(
            ["d2", "--draws", "2000", "--steps", "200", "--seed", "1", "--out", str(out_dir)]
        )
        assert code == 0
        assert "P(D >" in capsys.readouterr().out
        hist = (out_dir / "d2_histogram.csv").read_text().strip().split("\n")
        assert hist[0] == "bin_center,count"
        assert sum(int(line.split(",")[1]) for line in hist[1:]) == 2000

    def test_workers_give_the_same_histogram(self, tmp_path, capsys):
        # 3 chunks dealt into 1, 2 or 3 shares; the default is the usable CPUs
        texts = set()
        for workers in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "3"]):
            out_dir = tmp_path / f"d2{len(texts)}"
            assert main(["d2", "--draws", "2500", "--steps", "100", "--seed", "4", "--out", str(out_dir), *workers]) == 0
            texts.add((out_dir / "d2_histogram.csv").read_text() + capsys.readouterr().out.split("\n")[0])
        assert len(texts) == 1
        assert build_parser().parse_args(["d2"]).workers is None

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        assert main(["d2", "--draws", "1000", "--workers", workers, "--out", str(tmp_path / "d2")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: workers must be an int from 1 to MAX_WORKERS = 256, got {workers}\n"
        assert not (tmp_path / "d2").exists()

    def test_help_names_default_threshold(self, capsys):
        # the help shows inference.default_d2_threshold(), read without loading the runner
        with pytest.raises(SystemExit):
            main(["d2", "--help"])
        assert "(default 12.7062)" in " ".join(capsys.readouterr().out.split())

    def test_threshold_one(self, capsys):
        assert main(["d2", "--draws", "1000", "--steps", "150", "--threshold", "1.0"]) == 0
        assert "= 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--steps", "1000000000"], "n_steps must be at most MAX_N_OBS = 1000000, got 1000000000"),
            (["--draws", "1000000000000"], "n_draws must be at most MAX_D2_DRAWS = 10000000, got 1000000000000"),
        ],
    )
    def test_sizes_beyond_memory(self, capsys, flags, message):
        # 745 GiB of paths and 7.3 TiB of values: rejected before either is allocated
        assert main(["d2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_finite_threshold(self, capsys):
        assert main(["d2", "--draws", "1000", "--steps", "150", "--threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: threshold must be finite" in captured.err
