"""Experiment-engine contracts: method parsing, grid validation, cell/grid
agreement, worker-count invariance, and the exceedance study."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cauchypred import (
    DgpDiscreteConfig,
    DomainError,
    ExperimentGrid,
    RngStream,
    SchemaError,
    d2_study,
    default_d2_threshold,
    experiments,
    parse_method,
    run_cell,
    run_grid,
    simulate_discrete,
)
from cauchypred.dataio import bundled_config_names, load_experiment_file, resolve_config_path
from cauchypred.experiments import evaluate_method

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
        # each (q, parity) cell dispatches to its own public test
        test = {
            "t_q": "t_q_test",
            "hybrid": "hybrid_test",
            "hybrid_diff": "hybrid_test_intercept",
            "grouped_hybrid": "grouped_hybrid_test",
        }[kind]
        monkeypatch.setattr(experiments, test, lambda *args: kind)
        sample = simulate_discrete(DgpDiscreteConfig(n_obs=60), RngStream(1))
        assert evaluate_method(spec, sample, 0.05, "two") == kind

    @pytest.mark.parametrize(
        "label", ["t", "tau_x", "q8", "t8tau", "", "t8_tau", "t0", "t1", "t1_tau_o"]
    )
    def test_bad_labels(self, label):
        with pytest.raises(SchemaError):
            parse_method(label)


class TestGridValidation:
    def test_empty_methods(self):
        with pytest.raises(SchemaError):
            small_discrete_grid(methods=()).validate()

    def test_parity_method_on_continuous(self):
        grid = ExperimentGrid(
            dgp_kind="continuous",
            beta_values=(0.0,),
            kappa_values=(0.0,),
            T_values=(5.0,),
            vol_models=("CNST",),
            methods=("tau_e",),
            n_reps=10,
            master_seed=1,
        )
        with pytest.raises(SchemaError):
            grid.validate()

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

    @pytest.mark.parametrize("methods", [("tau_o", "tau_o"), ("t8", "t08")])
    def test_duplicate_methods(self, methods):
        # cells are keyed by label, so a repeated method would be counted twice
        with pytest.raises(SchemaError, match="more than once"):
            small_discrete_grid(methods=methods).validate()


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
        assert run_grid(grid, workers=8).to_csv_text() == serial
        # blocks of one row (a cap below one row still takes one), and one
        # block per (T, vol) group: the counts do not depend on the cut
        for cap in (60, 4 * 20 * 120):
            monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", cap)
            assert run_grid(grid, workers=1).to_csv_text() == serial
            assert run_grid(grid, workers=2).to_csv_text() == serial

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
        with pytest.raises(DomainError):
            run_grid(small_discrete_grid(), workers=0)

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_cells_match_golden(self, name):
        # every bundled config at 10 reps and master seed 1, byte for byte
        _, grid = load_experiment_file(resolve_config_path(name))
        grid = dataclasses.replace(grid, n_reps=10, master_seed=1)
        expected = (GOLDEN / f"{name}_cells.csv").read_text(encoding="utf-8")
        assert run_grid(grid).to_csv_text() == expected

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
