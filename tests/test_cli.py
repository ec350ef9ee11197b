"""End-to-end runs of the command-line interface on small inputs."""

import json
from pathlib import Path

import numpy as np
import pytest

from cauchypred import cli
from cauchypred.cli import main
from cauchypred.dataio import bundled_config_names, parse_csv
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

    def test_worker_flag_does_not_change_output(self, tmp_path):
        config = small_config(tmp_path)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w4"
        assert main(["table", "--config", str(config), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["table", "--config", str(config), "--out", str(out2), "--workers", "4"]) == 0
        assert (out1 / "cli_small_cells.csv").read_bytes() == (
            out2 / "cli_small_cells.csv"
        ).read_bytes()

    def test_schema_error_before_compute(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads(small_config(tmp_path).read_text())
        payload["vol_modl"] = ["CNST"]
        del payload["vol_models"]
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["table", "--config", str(bad), "--out", str(tmp_path / "x")]) != 0
        assert "vol_modl" in capsys.readouterr().err

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
        monkeypatch.setattr(cli, "run_grid", lambda grid, workers: McTable(n_reps=grid.n_reps))
        assert main(["table", "--config", name, "--out", str(tmp_path)]) == 0
        written = (tmp_path / f"{name}_manifest.json").read_bytes()
        assert written == (GOLDEN / f"{name}_manifest.json").read_bytes()

    def test_bundled_name_resolves(self, tmp_path, capsys):
        # bundled config exists; run is too heavy here, so just check the
        # resolution error path distinguishes names
        assert main(["table", "--config", "no_such", "--out", str(tmp_path / "y")]) != 0
        assert "bundled" in capsys.readouterr().err


class TestSimulateCommand:
    def test_discrete_dump(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--dgp", "discrete", "--n-obs", "24", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,y,x_lag,x_level"
        assert len(lines) == 25

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

    def test_threshold_one(self, capsys):
        assert main(["d2", "--draws", "1000", "--steps", "150", "--threshold", "1.0"]) == 0
        assert "= 1.0000" in capsys.readouterr().out

    def test_non_finite_threshold(self, capsys):
        assert main(["d2", "--draws", "1000", "--steps", "150", "--threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: threshold must be finite" in captured.err
