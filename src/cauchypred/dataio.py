"""CSV ingestion for empirical series and experiment-file parsing.

The empirical CSV contract: a header row, one row per period carrying a
date label, the period's excess return, and the predictor level observed at
the end of the period.  Lag alignment happens here, once: response t is
paired with the predictor level from row t-1, so downstream code receives a
ready :class:`RegressionSample` (with levels attached for the differenced
estimators).

Experiment files are flat JSON documents that map one-to-one onto
:class:`~cauchypred.experiments.ExperimentGrid`, whose fields define the
keys, their types and their defaults; unknown keys are errors.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import CsvFormatError, InsufficientDataError, SchemaError
from .estimators import RegressionSample

if TYPE_CHECKING:
    from .experiments import ExperimentGrid

_MIN_ROWS = 10


def _read_text(path: Path, error: type) -> str:
    """A file's text as UTF-8, without the byte-order mark spreadsheet
    "CSV UTF-8" exports start with; other bytes raise ``error``."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def _date_key(label: str):
    """Chronological sort key: numeric, ISO-date, or plain-string fallback."""
    try:
        return (0, float(label))
    except ValueError:
        pass
    for fmt in ("%Y-%m-%d", "%Y-%m", "%Y/%m/%d"):
        try:
            return (1, datetime.datetime.strptime(label, fmt))
        except ValueError:
            continue
    return (2, label)


def _unordered(dates) -> tuple[int, str]:
    """The date rule: the index of the first label of another format than
    the first label's or not strictly after the one before it, with what is
    wrong with it, or (0, "") if there is none."""
    keys = [_date_key(d) for d in dates]
    for i in range(1, len(keys)):
        if keys[i][0] != keys[0][0]:
            return i, f"date labels mix incompatible formats; {dates[i]!r} is not of the format of {dates[0]!r}"
        if not keys[i - 1] < keys[i]:
            return i, f"dates must be strictly increasing; {dates[i]!r} does not follow {dates[i - 1]!r}"
    return 0, ""


@dataclass(frozen=True)
class EmpiricalDataset:
    """Aligned raw series as read from disk (one entry per period)."""

    dates: tuple[str, ...]
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if not (len(self.dates) == y.shape[0] == x.shape[0]):
            raise CsvFormatError("dates, y and x must have equal length")
        if y.shape[0] < _MIN_ROWS:
            raise InsufficientDataError(
                f"need at least {_MIN_ROWS} usable rows, got {y.shape[0]}"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise CsvFormatError("series contain non-finite values")
        i, wrong = _unordered(self.dates)
        if i:
            raise CsvFormatError(f"row {i + 1}: {wrong}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    def to_regression_sample(self) -> RegressionSample:
        """Pair each response with the previous period's predictor level.

        Row 0's response has no lagged predictor and is dropped; the full
        predictor column becomes the level sequence x_0..x_T.
        """
        return RegressionSample(y=self.y[1:], x_lag=self.x[:-1], x_level=self.x)


def parse_csv(
    path: str | Path,
    date_col: str = "date",
    y_col: str = "y",
    x_col: str = "x",
) -> EmpiricalDataset:
    """Read an empirical dataset from a headed CSV file.

    Malformed, non-finite or missing numeric cells, and a date out of order
    or of another format than the first, are reported with their file line;
    fewer than 10 data rows is an error, and so are a header that repeats a
    name and a row with more cells than it.
    """
    path = Path(path)
    reader = csv.DictReader(io.StringIO(_read_text(path, CsvFormatError), newline=""))
    header = reader.fieldnames
    if header is None:
        raise CsvFormatError(f"{path}: file is empty")
    for col in header:  # DictReader would keep the last column of a name
        if header.count(col) > 1:
            raise CsvFormatError(f"{path}: column {col!r} appears more than once in header {header}")
    for col in (date_col, y_col, x_col):
        if col not in header:
            raise CsvFormatError(f"{path}: column {col!r} not found in header {header}")
    records = []  # (file line, date, y, x) of each data row
    for row in reader:
        i = reader.line_num  # the file line the record ends on, past blank lines and quoted line breaks
        if None in row:  # DictReader files the cells past the header under None
            raise CsvFormatError(f"{path}: row {i}: {len(header) + len(row[None])} cells, but the header has {len(header)}")
        date = (row.get(date_col) or "").strip()
        if not date:
            raise CsvFormatError(f"{path}: row {i}: empty {date_col!r} cell")
        values = {}
        for col in (y_col, x_col):
            cell = (row.get(col) or "").strip()
            if not cell:
                raise CsvFormatError(f"{path}: row {i}: missing value in column {col!r}")
            try:
                values[col] = float(cell)
            except ValueError:
                values[col] = math.nan
            if not math.isfinite(values[col]):
                raise CsvFormatError(
                    f"{path}: row {i}: column {col!r}: {cell!r} is not a finite number"
                )
        records.append((i, date, values[y_col], values[x_col]))
    if len(records) < _MIN_ROWS:
        raise InsufficientDataError(f"{path}: need at least {_MIN_ROWS} usable rows, got {len(records)}")
    lines, dates, ys, xs = zip(*records)
    i, wrong = _unordered(dates)
    if i:
        raise CsvFormatError(f"{path}: row {lines[i]}: {wrong}")
    return EmpiricalDataset(dates=dates, y=np.array(ys), x=np.array(xs))


# --------------------------------------------------------------------------
# experiment files


def _design_of(field: dataclasses.Field, kind: str) -> str:
    return field.metadata.get("design", kind)


def config_to_grid(config: dict, master_seed: int | None = None) -> ExperimentGrid:
    """Validate a config mapping and build the experiment grid.

    The keys are ``name`` plus the fields of :class:`ExperimentGrid`, with
    the field defaults; ``sided`` defaults to ``"right"`` under the discrete
    design.  ``name`` starts the name of every output file, so it must be a
    plain file name.  ``master_seed``, if given, replaces the config's
    before the grid is built, which checks every value.
    """
    from .experiments import ExperimentGrid

    if not isinstance(config, dict):
        raise SchemaError("experiment config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(ExperimentGrid)}  # read here: CSVs never load the runner
    required = {"name"} | {n for n, f in fields.items() if f.default is dataclasses.MISSING}
    unknown = set(config) - required - set(fields)
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise SchemaError(f"missing config keys: {sorted(missing)}")
    if not isinstance(config["name"], str) or not config["name"]:
        raise SchemaError("name must be a nonempty string")
    if config["name"] in (".", "..") or {"/", "\\", "\0"} & set(config["name"]):
        raise SchemaError(f"name must be a plain file name (no /, \\ or NUL; not . or ..), got {config['name']!r}")
    values = {k: v for k, v in config.items() if k != "name"}
    if master_seed is not None:
        values["master_seed"] = master_seed
    if values["dgp_kind"] == "discrete":
        values.setdefault("sided", "right")
    grid = ExperimentGrid(**values)
    misplaced = sorted(k for k in values if _design_of(fields[k], grid.dgp_kind) != grid.dgp_kind)
    if misplaced:
        raise SchemaError(f"keys {misplaced} do not apply to the {grid.dgp_kind} design")
    return grid


def grid_to_config(grid: ExperimentGrid, name: str) -> dict:
    """Full config echo, sufficient to reproduce a run bitwise."""
    config = {"name": name}
    for f in dataclasses.fields(grid):
        if _design_of(f, grid.dgp_kind) == grid.dgp_kind:
            value = getattr(grid, f.name)
            config[f.name] = list(value) if isinstance(value, tuple) else value
    return config


def load_experiment_file(
    path: str | Path, master_seed: int | None = None
) -> tuple[str, ExperimentGrid]:
    """Load an experiment JSON file (or a run manifest) into a grid, with
    ``master_seed``, if given, in place of the file's.

    A manifest produced by the table command wraps the config under a
    ``config`` key; it is accepted directly so a run can be reproduced from
    its own output.
    """
    import json

    path = Path(path)
    try:
        payload = json.loads(_read_text(path, SchemaError))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if isinstance(payload, dict) and "config" in payload and "tool" in payload:
        payload = payload["config"]
    grid = config_to_grid(payload, master_seed)
    return payload["name"], grid


def bundled_config_names() -> list[str]:
    files = Path(__file__).with_name("configs").iterdir()
    return sorted(p.name[: -len(".json")] for p in files if p.name.endswith(".json"))


def resolve_config_path(name_or_path: str) -> Path:
    """Interpret the argument as a filesystem path, else a bundled name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = Path(__file__).with_name("configs") / f"{name_or_path}.json"
    if candidate.is_file():
        return candidate
    raise SchemaError(
        f"config {name_or_path!r} is neither a file nor a bundled config; "
        f"bundled: {bundled_config_names()}"
    )
