"""Workload process of the cauchypred benchmark.

``perfbench/run.py`` starts this script once per run, with thread pools
pinned to one thread and ``src`` on ``PYTHONPATH``:

    python perfbench/workloads.py --workload mc_continuous --seed 7 \\
        --seconds 20 --trace 0 --out perfbench/out/mc_continuous

It sets the workload up, runs it closed loop for ``--seconds`` seconds,
checks every output and prints one JSON object as the last line of its
standard output.  With ``--trace 1`` it runs the same work untraced and
traced, alternately, and reports per-layer metrics instead.
``--setup-only`` stops after set-up and reports its duration.

numpy and cauchypred are imported in :func:`import_package`, not at module
level, because their import is part of the measured set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ALPHA = 0.05
# Null rejection counts of the tau family must lie within this many binomial
# standard deviations of n * alpha.
BAND_Z = 4.5
# The tail latency is the highest percentile with this many samples above it.
TAIL_BEYOND = 10
# A timed run makes at least this many operations, even past --seconds, so
# that the tail exists and the median is not that of a handful (cli_test
# makes about 10 invocations in 20 s).
MIN_OPS = 16
# Floors of the traced run.
IMPORT_SAMPLES = 3
NORMAL_SAMPLES = 7
NORMAL_BATCH = 1_000_000

perf_counter = time.perf_counter

cp = None  # the cauchypred package, bound by import_package()
np = None  # numpy, bound by import_package()


def import_package() -> None:
    global cp, np
    import numpy
    import cauchypred
    import cauchypred.cli  # noqa: F401  (the cli_test workload's entry point)

    cp, np = cauchypred, numpy


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(values)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(values)}")
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb(include_self: bool) -> float:
    """ru_maxrss of this process (optionally) plus its largest waited-for child."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ----------------------------------------------------------------------
# floors measured in the traced run


def normal_ns() -> float:
    """Nanoseconds per standard normal from a bare Philox generator."""
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    gen.standard_normal(NORMAL_BATCH)
    times = []
    for _ in range(NORMAL_SAMPLES):
        t = perf_counter()
        gen.standard_normal(NORMAL_BATCH)
        times.append(perf_counter() - t)
    return statistics.median(times) / NORMAL_BATCH * 1e9


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_ms() -> dict[str, float]:
    """Cumulative import times from ``python -X importtime`` in fresh interpreters."""
    samples: dict[str, list[float]] = {"cauchypred": [], "cauchypred.dgp": [], "cauchypred.dists": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cauchypred"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3) in samples:
                samples[m.group(3)].append(int(m.group(2)) / 1000.0)
    return {name: statistics.median(v) for name, v in samples.items()}


# ----------------------------------------------------------------------
# Monte Carlo grids


class McWorkload:
    """Bundled experiment configs through ``run_grid``; one op is one call."""

    def __init__(self, configs: tuple[str, ...], n_reps: int, parallel: bool):
        self.configs = configs
        self.n_reps = n_reps
        self.parallel = parallel

    def setup(self, seed: int, work_dir: Path) -> None:
        from cauchypred.dataio import resolve_config_path

        self.workers = len(os.sched_getaffinity(0)) if self.parallel else 1
        self.grids = []
        for name in self.configs:
            label, grid = cp.load_experiment_file(resolve_config_path(name))
            grid = dataclasses.replace(grid, master_seed=seed, n_reps=self.n_reps)
            grid.validate()
            self.grids.append((label, grid))
        self.reps_per_pass = sum(
            len(g.beta_values) * len(g.kappa_values) * len(g.T_values) * len(g.vol_models) * g.n_reps
            for _, g in self.grids
        )
        self.work_dir = work_dir
        self.reference: dict[str, str] | None = None

    def _pass(self, workers: int, tally: Tally, latencies: list[float] | None = None):
        """run_grid on every config; returns (wall seconds, {label: table or None})."""
        wall = 0.0
        tables = {}
        for label, grid in self.grids:
            tally.attempted += 1
            t = perf_counter()
            try:
                tables[label] = cp.run_grid(grid, workers=workers)
            except Exception as exc:  # count it and keep measuring
                tally.fail(f"{label}: run_grid raised {type(exc).__name__}: {exc}")
                tables[label] = None
                continue
            dt = perf_counter() - t
            wall += dt
            if latencies is not None:
                latencies.append(dt)
        return wall, tables

    def _band_problem(self, table) -> str | None:
        """Null tau-family cells under CNST must sit in a binomial band around alpha."""
        counts: dict[str, list[int]] = {}
        for key, cell in table.cells.items():
            if key.vol == "CNST" and key.beta == 0.0 and key.method in ("tau", "tau_e", "tau_o"):
                c = counts.setdefault(key.method, [0, 0])
                c[0] += cell.rejections
                c[1] += cell.n_reps
        for method, (rejections, n) in counts.items():
            sd = (n * ALPHA * (1 - ALPHA)) ** 0.5
            if abs(rejections - n * ALPHA) > BAND_Z * sd:
                return f"{method}: {rejections}/{n} null rejections outside the band"
        return None

    def _check(self, tables: dict, tally: Tally) -> None:
        """Every cells CSV must equal the reference byte for byte."""
        texts = {label: t.to_csv_text() for label, t in tables.items() if t is not None}
        if self.reference is None:
            self.reference = texts
            self.bad_bands = {label: self._band_problem(tables[label]) for label in texts}
            self.degenerate_frac = _degenerate_frac(tables.values())
        for label, text in texts.items():
            if text != self.reference.get(label):
                tally.fail(f"{label}: cells CSV differs from the reference run")
            elif self.bad_bands[label]:
                tally.fail(f"{label}: {self.bad_bands[label]}")

    def digests(self) -> dict[str, str]:
        out = {}
        for label, text in (self.reference or {}).items():
            name = f"{label}_cells.csv"
            (self.work_dir / name).write_text(text, encoding="utf-8")
            out[name] = sha256(text)
        return out

    def timed(self, seconds: float, tally: Tally) -> dict:
        latencies: list[float] = []
        passes = []
        deadline = perf_counter() + seconds
        min_passes = -(-MIN_OPS // len(self.grids))
        while len(passes) < min_passes or perf_counter() < deadline:
            passes.append(self._pass(self.workers, tally, latencies))
        if self.workers > 1:
            # the untraced serial run is the reference the timed ones must match
            self._check(self._pass(1, tally)[1], tally)
        for _, tables in passes:
            self._check(tables, tally)
        rates = [self.reps_per_pass / wall for wall, tables in passes if all(tables.values())]
        return {
            "reps_per_s": statistics.median(rates),
            "latencies": latencies,
            "peak_rss_mb": peak_rss_mb(include_self=True),
        }

    def traced(self, seconds: float, tally: Tally, recorder) -> dict:
        walls: dict[str, list[float]] = {"parallel": [], "serial": [], "traced": []}
        deadline = perf_counter() + seconds
        while len(walls["traced"]) < 2 or perf_counter() < deadline:
            if self.workers > 1:
                wall, tables = self._pass(self.workers, tally)
                walls["parallel"].append(wall)
                self._check(tables, tally)
            wall, tables = self._pass(1, tally)
            walls["serial"].append(wall)
            self._check(tables, tally)
            with recorder:
                wall, tables = self._pass(1, tally)
            walls["traced"].append(wall)
            self._check(tables, tally)
        median = {k: statistics.median(v) if v else 0.0 for k, v in walls.items()}
        combos = recorder.durations("experiments._run_combination")
        return {
            "passes": len(walls["traced"]),
            "reps": self.reps_per_pass * len(walls["traced"]),
            "traced_wall_s": sum(walls["traced"]),
            "untraced_pass_s": median["serial"],
            "traced_pass_s": median["traced"],
            "parallel_efficiency": (
                median["serial"] / (self.workers * median["parallel"]) if self.workers > 1 else 1.0
            ),
            "combo_imbalance": float(combos.max() / combos.mean()) if combos.size else 0.0,
            "degenerate_frac": self.degenerate_frac,
        }


def _degenerate_frac(tables) -> float:
    degenerate = evaluated = 0
    for table in tables:
        for cell in table.cells.values():
            degenerate += cell.degenerate
            evaluated += cell.n_reps
    return degenerate / evaluated


# ----------------------------------------------------------------------
# two-group limit ratio study


class D2Workload:
    """``d2_study`` at 1000 steps; one op is one call of ``draws`` draws."""

    draws = 2000
    steps = 1000

    def setup(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference: str | None = None

    def _call(self, tally: Tally) -> float | None:
        tally.attempted += 1
        t = perf_counter()
        try:
            result = cp.d2_study(self.draws, self.steps, master_seed=self.seed)
        except Exception as exc:  # count it and keep measuring
            tally.fail(f"d2_study raised {type(exc).__name__}: {exc}")
            return None
        dt = perf_counter() - t
        lines = ["bin_center,count"]
        lines += [f"{float(c)!r},{int(n)}" for c, n in zip(result.bin_centers, result.bin_counts)]
        text = "\n".join(lines) + f"\nmin,{result.min_value!r}\ntail_prob,{result.tail_prob!r}\n"
        if self.reference is None:
            self.reference = text
        if not result.min_value >= 1.0:
            tally.fail(f"d2 minimum {result.min_value!r} is below 1")
        elif int(result.bin_counts.sum()) != self.draws:
            tally.fail(f"d2 histogram holds {int(result.bin_counts.sum())} of {self.draws} draws")
        elif text != self.reference:
            tally.fail("d2 result differs between calls with the same seed")
        return dt

    def digests(self) -> dict[str, str]:
        if self.reference is None:
            return {}
        (self.work_dir / "d2_histogram.csv").write_text(self.reference, encoding="utf-8")
        return {"d2_histogram.csv": sha256(self.reference)}

    def timed(self, seconds: float, tally: Tally) -> dict:
        latencies = []
        deadline = perf_counter() + seconds
        calls = 0
        while calls < MIN_OPS or perf_counter() < deadline:
            calls += 1
            dt = self._call(tally)
            if dt is not None:
                latencies.append(dt)
        return {
            "reps_per_s": statistics.median(self.draws / dt for dt in latencies),
            "latencies": latencies,
            "peak_rss_mb": peak_rss_mb(include_self=True),
        }

    def traced(self, seconds: float, tally: Tally, recorder) -> dict:
        untraced, traced = [], []
        deadline = perf_counter() + seconds
        rounds = 0
        while rounds < 2 or perf_counter() < deadline:
            rounds += 1
            dt = self._call(tally)
            if dt is not None:
                untraced.append(dt)
            with recorder:
                dt = self._call(tally)
            if dt is not None:
                traced.append(dt)
        return {
            "passes": len(traced),
            "reps": self.draws * len(traced),
            "traced_wall_s": sum(traced),
            "untraced_pass_s": statistics.median(untraced),
            "traced_pass_s": statistics.median(traced),
        }


# ----------------------------------------------------------------------
# cauchypred test on seeded CSV files


class CliWorkload:
    """Sequential ``cauchypred test`` processes; one op is one invocation."""

    rows = 600
    n_files = 5
    variants = (
        ("--method", "hybrid"),
        ("--method", "hybrid", "--intercept"),
        ("--method", "tq", "--q", "12"),
        ("--method", "tq", "--q", "12", "--intercept"),
    )

    def setup(self, seed: int, work_dir: Path) -> None:
        """Write seeded CSVs: numeric dates, a near-unit-root predictor, returns
        whose shocks correlate with the predictor's.  No cauchypred.dgp here, so
        the generator is not part of this workload."""
        rng = np.random.default_rng(seed)
        self.files = []
        for i in range(self.n_files):
            v = rng.standard_normal(self.rows)
            e = -0.9 * v + np.sqrt(1 - 0.81) * rng.standard_normal(self.rows)
            x = np.empty(self.rows)
            x[0] = v[0]
            for t in range(1, self.rows):
                x[t] = 0.99 * x[t - 1] + v[t]
            y = np.empty(self.rows)
            y[0] = e[0]
            y[1:] = 0.002 * x[:-1] + e[1:]
            path = work_dir / f"series_{i}.csv"
            lines = ["date,y,x"] + [f"{t + 1},{float(y[t])!r},{float(x[t])!r}" for t in range(self.rows)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.files.append(path)
        self.out_dir = work_dir / "cli_out"
        self.out_dir.mkdir(exist_ok=True)
        self.work_dir = work_dir
        self.outputs: dict[tuple[int, int], str] = {}

    def _argv(self, i: int) -> tuple[tuple[int, int], list[str]]:
        key = (i % self.n_files, i % len(self.variants))
        argv = ["test", str(self.files[key[0]]), *self.variants[key[1]], "--out", str(self.out_dir)]
        return key, argv

    def _read_output(self, key, tally: Tally) -> None:
        target = self.out_dir / "test_result.csv"
        try:
            text = target.read_text(encoding="utf-8")
            target.unlink()
        except FileNotFoundError:
            tally.fail(f"{key}: no result file written")
            return
        if key not in self.outputs:
            self.outputs[key] = text
            if not self._matches_reference(key, text):
                tally.fail(f"{key}: CSV statistic or p-value differs from the in-process outcome")
                self.outputs[key] = None
        elif text != self.outputs[key]:
            tally.fail(f"{key}: result differs between invocations or from the in-process outcome")

    def _matches_reference(self, key, text: str) -> bool:
        sample = cp.parse_csv(self.files[key[0]]).to_regression_sample()
        variant = self.variants[key[1]]
        intercept = "--intercept" in variant
        if "tq" in variant:
            if intercept:
                outcome = cp.grouped_hybrid_test(sample, "odd", 12, ALPHA, "two")
            else:
                outcome = cp.t_q_test(cp.group_gammas(sample, 12), ALPHA, "two")
        elif intercept:
            outcome = cp.hybrid_test_intercept(sample, "odd", ALPHA, "two")
        else:
            outcome = cp.hybrid_test(sample, ALPHA, "two")
        fields = text.splitlines()[1].split(",")
        return fields[1:3] == [repr(outcome.statistic), repr(outcome.p_value)]

    def _subprocess(self, i: int, tally: Tally) -> float | None:
        key, argv = self._argv(i)
        tally.attempted += 1
        t = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cauchypred.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            tally.fail(f"{key}: no exit within 60 s")
            return None
        dt = perf_counter() - t
        if proc.returncode != 0:
            tally.fail(f"{key}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return None
        self._read_output(key, tally)
        return dt

    def _in_process(self, i: int, tally: Tally, recorder=None) -> float | None:
        key, argv = self._argv(i)
        tally.attempted += 1
        with recorder or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
            t = perf_counter()
            code = cp.cli.main(argv)
            dt = perf_counter() - t
        if code != 0:
            tally.fail(f"{key}: cli.main returned {code}")
            return None
        self._read_output(key, tally)
        return dt

    def digests(self) -> dict[str, str]:
        text = "".join(self.outputs[k] or "" for k in sorted(self.outputs))
        (self.work_dir / "test_results.csv").write_text(text, encoding="utf-8")
        return {"test_results.csv": sha256(text)}

    def timed(self, seconds: float, tally: Tally) -> dict:
        latencies = []
        deadline = perf_counter() + seconds
        i = 0
        while i < MIN_OPS or perf_counter() < deadline:
            dt = self._subprocess(i, tally)
            if dt is not None:
                latencies.append(dt)
            i += 1
        return {
            "reps_per_s": statistics.median(1.0 / dt for dt in latencies),
            "latencies": latencies,
            # the harness process is not part of what a user runs
            "peak_rss_mb": peak_rss_mb(include_self=False),
        }

    def traced(self, seconds: float, tally: Tally, recorder) -> dict:
        deadline = perf_counter() + seconds / 2
        latencies = []
        i = 0
        while i < 5 or perf_counter() < deadline:
            dt = self._subprocess(i, tally)
            if dt is not None:
                latencies.append(dt)
            i += 1
        untraced, traced = [], []
        deadline = perf_counter() + seconds / 2
        first = i
        while i < first + 20 or perf_counter() < deadline:
            dt = self._in_process(i, tally)
            if dt is not None:
                untraced.append(dt)
            dt = self._in_process(i, tally, recorder)
            if dt is not None:
                traced.append(dt)
            i += 1
        return {
            "passes": len(traced),
            "reps": len(traced),
            "traced_wall_s": sum(traced),
            "untraced_pass_s": statistics.median(untraced),
            "traced_pass_s": statistics.median(traced),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
        }


WORKLOADS = {
    "mc_continuous": lambda: McWorkload(
        ("table1_cnst", "size_persistent_vol", "power_cnst"), n_reps=40, parallel=True
    ),
    "mc_discrete": lambda: McWorkload(
        ("discrete_cnst_ma2", "discrete_sb_ma2", "discrete_rs_ma2"), n_reps=8, parallel=False
    ),
    "d2": D2Workload,
    "cli_test": CliWorkload,
}


# ----------------------------------------------------------------------
# per-layer metrics from the spans of the traced run


TESTS = ("t_q_test", "hybrid_test", "hybrid_test_intercept", "grouped_hybrid_test")


def layer_metrics(recorder, run: dict, floors: dict) -> dict[str, float]:
    spans = recorder.summary()
    reps = run["reps"]
    passes = run["passes"]

    def module(prefix):
        return [s for name, s in spans.items() if name.startswith(prefix)]

    def per_call_us(*names, field="total_s"):
        hits = [spans[n] for n in names if n in spans]
        calls = sum(s["calls"] for s in hits)
        return sum(s[field] for s in hits) / calls * 1e6 if calls else 0.0

    def calls(prefix):
        return sum(s["calls"] for s in module(prefix))

    def self_us_per_rep(prefix):
        return sum(s["self_s"] for s in module(prefix)) / reps * 1e6

    def degenerate(error):
        return sum(spans.get(f"inference.{name}", {}).get("errors", {}).get(error, 0)
                   for name in TESTS) / passes

    ns_per_normal = floors["normal_ns"]
    m = {
        "rng.stream_setup_us": per_call_us("rng.RngStream.generator"),
        "rng.streams": calls("rng.RngStream.generator") / passes,
        "rng.substream_index_us": per_call_us("rng.substream_index"),
        "rng.normal_ns": ns_per_normal,
        "rng.floor_frac": recorder.normals / passes * ns_per_normal * 1e-9 / run["untraced_pass_s"],
    }
    for vol in ("CNST", "SB", "RS", "GBM"):
        m[f"dgp.simulate_us.{vol}"] = per_call_us(
            f"dgp.simulate_continuous[{vol}]", f"dgp.simulate_discrete[{vol}]")
    for vol in ("SB", "RS", "GBM"):
        m[f"dgp.gen_volatility_us.{vol}"] = per_call_us(f"dgp.gen_volatility[{vol}]")
    m.update({
        "dgp.calls": calls("dgp.") / reps,
        "dgp.brownian_us": per_call_us("dgp.brownian_path"),
        "dgp.d_statistic_us": per_call_us("dgp.d_statistic"),
        "dgp.import_ms": floors["import_ms"]["cauchypred.dgp"],
        "dists.import_ms": floors["import_ms"]["cauchypred.dists"],
        "cauchypred.import_ms": floors["import_ms"]["cauchypred"],
        "estimators.sample_build_us": per_call_us("estimators.RegressionSample.__post_init__"),
    })
    for name in ("cauchy_estimate", "group_gammas", "ols_fit", "diff_terms", "diff_cauchy"):
        m[f"estimators.{name}_us"] = per_call_us(f"estimators.{name}")
    m["estimators.self_us_per_rep"] = self_us_per_rep("estimators.")
    for name in TESTS:
        m[f"inference.{name}_us"] = per_call_us(f"inference.{name}", field="self_s")
    for error in ("DegenerateDenominatorError", "DegenerateVarianceError", "DegenerateGroupsError"):
        m[f"inference.degenerate.{error}"] = degenerate(error)
    d2_self_s = spans.get("experiments.d2_study", {}).get("self_s", 0.0)
    m.update({
        "experiments.degenerate_frac": run.get("degenerate_frac", 0.0),
        "dists.self_us_per_rep": self_us_per_rep("dists."),
        "dists.calls": calls("dists.") / reps,
        "experiments.self_us_per_rep": self_us_per_rep("experiments."),
        "experiments.d2_self_us_per_draw": d2_self_s / reps * 1e6,
        "experiments.parallel_efficiency": run.get("parallel_efficiency", 0.0),
        "experiments.combo_imbalance": run.get("combo_imbalance", 0.0),
        "dataio.parse_csv_ms": per_call_us("dataio.parse_csv") / 1e3,
        "cli.main_ms": per_call_us("cli.main") / 1e3,
    })
    m["cli.process_overhead_ms"] = (
        run["latency_p50_ms"] - m["cauchypred.import_ms"] - m["cli.main_ms"]
        if "latency_p50_ms" in run else 0.0
    )
    m["trace.overhead_frac"] = run["traced_pass_s"] / run["untraced_pass_s"] - 1.0
    m["trace.coverage_frac"] = recorder.root_seconds() / run["traced_wall_s"]
    return m


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import_package()
    workload = WORKLOADS[args.workload]()
    args.out.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, args.out)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    result = {
        "setup_s": setup_s,
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "cauchypred_file": cp.__file__,
    }
    if args.trace:
        from spans import SpanRecorder

        floors = {"normal_ns": normal_ns(), "import_ms": import_ms()}
        recorder = SpanRecorder()
        run = workload.traced(args.seconds, tally, recorder)
        recorder.write(args.out / "spans.csv")
        result["metrics"] = layer_metrics(recorder, run, floors)
    else:
        run = workload.timed(args.seconds, tally)
        value, pct = tail(run["latencies"])
        result["metrics"] = {
            "reps_per_s": run["reps_per_s"],
            "latency_p50_ms": statistics.median(run["latencies"]) * 1e3,
            "latency_tail_ms": value * 1e3,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        result["latency_tail_pct"] = pct
        result["latency_samples"] = len(run["latencies"])
    result.update(
        attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
        digests=workload.digests(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
