"""CSV ingestion, lag alignment, round-trips, and experiment-file schema."""

import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cauchypred import (
    CsvFormatError,
    InsufficientDataError,
    SchemaError,
)
from cauchypred.dataio import (
    EmpiricalDataset,
    bundled_config_names,
    config_to_grid,
    grid_to_config,
    load_experiment_file,
    parse_csv,
    resolve_config_path,
)


def write_csv(tmp_path, rows, header="date,y,x"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def make_rows(n, start_year=2000):
    gen = np.random.default_rng(1)
    return [
        f"{start_year + i},{gen.standard_normal():.6f},{gen.standard_normal():.6f}"
        for i in range(n)
    ]


def laid_out(tmp_path, rows):
    """``rows`` written as they are, then with the first date cell quoted
    across two lines, then with a blank line after the first row: each file
    with the number of lines its layout adds before the second row."""
    quoted = [f'"{rows[0][:4]}\n"{rows[0][4:]}', *rows[1:]]
    for layout, added in ((rows, 0), (quoted, 1), ([rows[0], "", *rows[1:]], 1)):
        yield write_csv(tmp_path, layout), added


class TestParseCsv:
    def test_well_formed(self, tmp_path):
        ds = parse_csv(write_csv(tmp_path, make_rows(12)))
        assert len(ds.y) == 12

    def test_missing_x_cell_names_row(self, tmp_path):
        rows = make_rows(12)
        rows[4] = "2004,0.5,"
        for path, added in laid_out(tmp_path, rows):  # rows are named by file line
            with pytest.raises(CsvFormatError, match=f"row {6 + added}: missing value in column 'x'"):
                parse_csv(path)

    def test_non_numeric_names_row_and_column(self, tmp_path):
        rows = make_rows(12)
        rows[7] = "2007,abc,0.3"
        for path, added in laid_out(tmp_path, rows):
            with pytest.raises(CsvFormatError, match=f"row {9 + added}: column 'y'"):
                parse_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_names_row_and_column(self, tmp_path, cell):
        rows = make_rows(12)
        rows[3] = f"2003,0.1,{cell}"
        for path, added in laid_out(tmp_path, rows):
            with pytest.raises(CsvFormatError, match=f"row {5 + added}: column 'x': '{cell}'"):
                parse_csv(path)

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        plain = write_csv(tmp_path, make_rows(12))
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        ds, ref = parse_csv(marked), parse_csv(plain)
        assert ds.dates == ref.dates
        assert np.array_equal(ds.y, ref.y) and np.array_equal(ds.x, ref.x)

    def test_too_few_rows(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            parse_csv(write_csv(tmp_path, make_rows(6)))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["2000,1.0", "2001,2.0"], header="date,y")
        with pytest.raises(CsvFormatError, match="'x'"):
            parse_csv(path)

    @pytest.mark.parametrize("header", ["date,y,x,x", "date,x,y,x", "date,y,x,note,note"])
    def test_repeated_header_name(self, tmp_path, header):
        # DictReader would read x from the last column of the name
        rows = [row + ",1" * (header.count(",") - 2) for row in make_rows(12)]
        repeated = "note" if "note" in header else "x"
        with pytest.raises(CsvFormatError, match=f"column '{repeated}' appears more than once in header"):
            parse_csv(write_csv(tmp_path, rows, header=header))

    @pytest.mark.parametrize("extra,cells", [(",234.5", 4), (",1,2", 5), (",", 4)])
    def test_long_row_names_row_and_counts(self, tmp_path, extra, cells):
        # a thousands separator splits "1,234.5": DictReader would read x as 1
        # and file "234.5" under None
        rows = make_rows(12)
        rows[3] = "2003,0.1,1" + extra
        for path, added in laid_out(tmp_path, rows):
            with pytest.raises(CsvFormatError, match=f"row {5 + added}: {cells} cells, but the header has 3$"):
                parse_csv(path)

    def test_non_increasing_dates(self, tmp_path):
        # a repeated or an earlier date is named by its file line, as a bad cell is
        for date in ("2004", "2003"):
            rows = make_rows(12)
            rows[5] = date + rows[5][4:]
            for path, added in laid_out(tmp_path, rows):
                message = f"{path}: row {7 + added}: dates must be strictly increasing; '{date}' does not follow '2004'"
                with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
                    parse_csv(path)
            # a dataset built directly numbers its data rows
            message = f"row 6: dates must be strictly increasing; '{date}' does not follow '2004'"
            with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
                EmpiricalDataset(tuple(row[:4] for row in rows), np.zeros(12), np.zeros(12))

    def test_mixed_date_formats(self, tmp_path):
        # the first label of another format than the first label's is named
        # by its file line, as an unordered date is; the date out of order
        # two lines below it comes second
        rows = make_rows(12)
        rows[7] = "2007-01-01" + rows[7][4:]
        rows[9] = "2001" + rows[9][4:]
        for path, added in laid_out(tmp_path, rows):
            message = (
                f"{path}: row {9 + added}: date labels mix incompatible formats; "
                "'2007-01-01' is not of the format of '2000'"
            )
            with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
                parse_csv(path)
        message = "row 8: date labels mix incompatible formats; '2007-01-01' is not of the format of '2000'"
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            EmpiricalDataset(tuple(row.split(",")[0] for row in rows), np.zeros(12), np.zeros(12))

    def test_iso_month_dates(self, tmp_path):
        gen = np.random.default_rng(2)
        rows = [
            f"1990-{m:02d},{gen.standard_normal():.4f},{gen.standard_normal():.4f}"
            for m in range(1, 13)
        ]
        assert len(parse_csv(write_csv(tmp_path, rows)).y) == 12

    def test_custom_column_names(self, tmp_path):
        gen = np.random.default_rng(3)
        rows = [
            f"{2000 + i},{gen.standard_normal():.4f},{gen.standard_normal():.4f}"
            for i in range(11)
        ]
        path = write_csv(tmp_path, rows, header="period,ret,ratio")
        ds = parse_csv(path, date_col="period", y_col="ret", x_col="ratio")
        assert len(ds.y) == 11


class TestAlignment:
    def test_lag_rule(self):
        # levels x0..x3 pair with responses y1..y3
        ds = EmpiricalDataset(
            dates=tuple(str(2000 + i) for i in range(10)),
            y=np.arange(10, dtype=float),
            x=np.arange(10, dtype=float) * 10,
        )
        s = ds.to_regression_sample()
        assert_allclose(s.y, np.arange(1, 10))
        assert_allclose(s.x_lag, np.arange(9) * 10.0)
        assert_allclose(s.x_level, np.arange(10) * 10.0)


def base_config(**overrides):
    config = {
        "name": "unit",
        "dgp_kind": "discrete",
        "beta_values": [0.0],
        "kappa_values": [0.0],
        "T_values": [60],
        "vol_models": ["CNST"],
        "methods": ["tau_o"],
        "n_reps": 10,
        "master_seed": 3,
    }
    config.update(overrides)
    return config


class TestExperimentFiles:
    def test_valid_config(self):
        grid = config_to_grid(base_config())
        assert grid.sided == "right"  # discrete default

    def test_unknown_key_named(self):
        with pytest.raises(SchemaError, match="vol_modl"):
            config_to_grid(base_config(vol_modl=["CNST"]))

    @pytest.mark.parametrize("name", ["../up", "a/b", "a\\b", ".", "..", "a\0b"], ids=repr)
    def test_name_must_be_a_plain_file_name(self, name):
        with pytest.raises(SchemaError, match="^name must be a plain file name"):
            config_to_grid(base_config(name=name))
        assert config_to_grid(base_config(name="..run.v2")) == config_to_grid(base_config())  # dots in a name are fine

    def test_missing_key_named(self):
        config = base_config()
        del config["n_reps"]
        with pytest.raises(SchemaError, match="n_reps"):
            config_to_grid(config)

    def test_kind_mismatched_key(self):
        with pytest.raises(SchemaError, match="delta"):
            config_to_grid(base_config(delta=0.1))

    def test_bad_method_label(self):
        with pytest.raises(SchemaError, match="unknown method"):
            config_to_grid(base_config(methods=["tq8"]))

    @pytest.mark.parametrize("knobs", [{"jump_intensity": -1.0}, {"jump_sd": -3.0}])
    def test_negative_jump_knobs(self, knobs):
        config = base_config(dgp_kind="continuous", methods=["tau"], T_values=[20], **knobs)
        with pytest.raises(SchemaError, match="jump"):
            config_to_grid(config)

    def test_model_rules_come_from_the_dgp_config(self):
        # the DGP configs own the volatility-model rules; a file breaking
        # one is still a schema error, with the config's message
        with pytest.raises(SchemaError, match="unknown volatility model 'XX'"):
            config_to_grid(base_config(vol_models=["CNST", "XX"]))
        with pytest.raises(SchemaError, match="GBM volatility model is not part"):
            config_to_grid(base_config(vol_models=["GBM"]))
        continuous = base_config(dgp_kind="continuous", methods=["tau"], T_values=[20])
        assert config_to_grid({**continuous, "vol_models": ["GBM"]}).vol_models == ("GBM",)

    def test_type_errors(self):
        with pytest.raises(SchemaError):
            config_to_grid(base_config(n_reps=2.5))
        with pytest.raises(SchemaError):
            config_to_grid(base_config(beta_values="0.0"))
        # optional keys get the same checks as required ones
        for key, value in (("alpha", "abc"), ("ma_order", 2.7), ("alpha", "0.1"), ("rho", True)):
            with pytest.raises(SchemaError, match=key):
                config_to_grid(base_config(**{key: value}))
        # JSON's NaN and Infinity are numbers too, but no value of a grid
        continuous = {"dgp_kind": "continuous", "methods": ["tau"], "T_values": [20]}
        for bad in (float("nan"), float("inf"), float("-inf")):
            for key in ("beta_values", "kappa_values", "T_values"):
                with pytest.raises(SchemaError, match=key):
                    config_to_grid(base_config(**{**continuous, key: [1.0, bad]}))
            for key in ("alpha", "delta", "rho_vw", "rho_wz", "jump_intensity", "jump_sd"):
                with pytest.raises(SchemaError, match=key):
                    config_to_grid(base_config(**{**continuous, key: bad}))
            with pytest.raises(SchemaError, match="rho"):
                config_to_grid(base_config(rho=bad))

    def test_master_seed_out_of_range(self):
        # the stream key's rule, reported before any replication runs
        with pytest.raises(SchemaError, match="master_seed"):
            config_to_grid(base_config(master_seed=2**64))
        grid = config_to_grid(base_config())
        with pytest.raises(SchemaError, match="master_seed"):
            dataclasses.replace(grid, master_seed=-1).validate()

    def test_load_file_and_manifest(self, tmp_path):
        config = base_config()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        name, grid = load_experiment_file(path)
        assert name == "unit"
        manifest = {"tool": "cauchypred", "version": "0.1.0", "config": grid_to_config(grid, name)}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        name2, grid2 = load_experiment_file(mpath)
        assert name2 == name and grid2 == grid

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_experiment_file(path)

    def test_bundled_configs_load(self):
        names = bundled_config_names()
        assert "table1_cnst" in names
        for name in names:
            _, grid = load_experiment_file(resolve_config_path(name))
            assert grid.n_reps >= 1

    def test_unknown_bundled_name(self):
        with pytest.raises(SchemaError, match="neither a file nor a bundled"):
            resolve_config_path("no_such_config")
