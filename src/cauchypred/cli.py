"""Command-line interface.

Subcommands:

* ``test``      run one hypothesis test on a CSV return/predictor series
* ``table``     run an experiment file and write rejection-frequency tables
* ``simulate``  dump a single generated sample to CSV
* ``d2``        simulate the two-group limit-ratio density

Every command is deterministic given its arguments and seed.  Exit code 0
means success; any error prints a message to stderr and returns a nonzero
code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .dataio import (
    bundled_config_names,
    grid_to_config,
    load_experiment_file,
    parse_csv,
    resolve_config_path,
)
from .dgp import DgpContinuousConfig, DgpDiscreteConfig, simulate_continuous, simulate_discrete
from .errors import CauchyPredError
from .estimators import PARITIES
from .inference import SIDES, MethodSpec, TestOutcome, default_d2_threshold, evaluate_method
from .rng import RngStream

def _significance_mark(p: float) -> str:
    return "**" if p <= 0.01 else "*" if p <= 0.05 else ""


def _render_outcome(label: str, outcome: TestOutcome) -> str:
    mark = _significance_mark(outcome.p_value)
    decision = "reject" if outcome.reject else "fail to reject"
    ref = outcome.ref_dist.family
    if outcome.ref_dist.df is not None:
        ref += f"(df={outcome.ref_dist.df})"
    line = (
        f"{label}: statistic={outcome.statistic:.4f}{mark} p={outcome.p_value:.4f} "
        f"[{outcome.sided}-sided vs {ref}] -> {decision} at alpha={outcome.alpha:g}"
    )
    if outcome.warning:
        line += f"\n  warning: {outcome.warning}"
    return line


def _outcome_csv(label: str, outcome: TestOutcome) -> str:
    header = "method,statistic,p_value,sided,alpha,reject,significance"
    row = (
        f"{label},{outcome.statistic!r},{outcome.p_value!r},{outcome.sided},"
        f"{outcome.alpha!r},{int(outcome.reject)},{_significance_mark(outcome.p_value)}"
    )
    return header + "\n" + row + "\n"


def _method_spec(args: argparse.Namespace) -> MethodSpec:
    """The test named by --method, --q, --intercept and --parity."""
    if args.q is not None and args.method != "tq":
        raise CauchyPredError("--q applies only to --method tq")
    if args.parity is not None and not args.intercept:
        raise CauchyPredError("--parity applies only with --intercept")
    if args.method == "tq" and args.q is None:
        raise CauchyPredError("--q is required for the group t-test")
    return MethodSpec(q=args.q, parity=(args.parity or "odd") if args.intercept else None)


def _cmd_test(args: argparse.Namespace) -> int:
    dataset = parse_csv(
        args.csv, date_col=args.date_col, y_col=args.y_col, x_col=args.x_col
    )
    sample = dataset.to_regression_sample()
    spec = _method_spec(args)
    outcome = evaluate_method(spec, sample, args.alpha, args.sided)
    label = spec.label
    print(_render_outcome(label, outcome))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / "test_result.csv"
        target.write_text(_outcome_csv(label, outcome), encoding="utf-8")
        print(f"wrote {target}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    import json

    from .experiments import run_grid

    if args.workers < 1:  # before the output directory is made
        raise CauchyPredError("workers must be >= 1")
    path = resolve_config_path(args.config)
    name, grid = load_experiment_file(path, master_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # fails before the grid runs
    table = run_grid(grid, workers=args.workers)
    csv_path = out_dir / f"{name}_cells.csv"
    txt_path = out_dir / f"{name}_table.txt"
    manifest_path = out_dir / f"{name}_manifest.json"
    csv_path.write_text(table.to_csv_text(), encoding="utf-8")
    txt_path.write_text(table.to_aligned_text(), encoding="utf-8")
    manifest = {
        "tool": "cauchypred",
        "version": __version__,
        "config": grid_to_config(grid, name),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {csv_path}, {txt_path}, {manifest_path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.dgp == "continuous":
        if args.n_obs is not None:
            raise CauchyPredError("--n-obs applies only to --dgp discrete")
        config = DgpContinuousConfig(
            years=20.0 if args.years is None else args.years,
            kappa_bar=args.kappa,
            beta=args.beta,
            vol_model=args.vol,
        )
        sample = simulate_continuous(config, RngStream(args.seed))
    else:
        if args.years is not None:
            raise CauchyPredError("--years applies only to --dgp continuous")
        config = DgpDiscreteConfig(
            n_obs=240 if args.n_obs is None else args.n_obs,
            kappa_bar=args.kappa,
            beta=args.beta,
            vol_model=args.vol,
        )
        sample = simulate_discrete(config, RngStream(args.seed))
    lines = ["t,y,x_lag" + (",x_level" if sample.x_level is not None else "")]
    x1 = sample.x1()
    for t in range(sample.n_obs):
        row = f"{t + 1},{float(sample.y[t])!r},{float(x1[t])!r}"
        if sample.x_level is not None:
            row += f",{float(sample.x_level[t + 1])!r}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_d2(args: argparse.Namespace) -> int:
    from .experiments import d2_study

    result = d2_study(
        n_draws=args.draws,
        n_steps=args.steps,
        threshold=args.threshold,
        master_seed=args.seed,
    )
    print(
        f"draws={result.n_draws} steps={result.n_steps} min={result.min_value:.4f} "
        f"P(D > {result.threshold:.4f}) = {result.tail_prob:.4f} "
        f"(mc se {result.mc_se:.4f})"
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        hist = out_dir / "d2_histogram.csv"
        lines = ["bin_center,count"]
        for c, n in zip(result.bin_centers, result.bin_counts):
            lines.append(f"{float(c)!r},{int(n)}")
        hist.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {hist}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchypred",
        description="Robust sign-instrument inference for predictive regressions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a CSV return/predictor series")
    p_test.add_argument("csv", help="path to the data file")
    p_test.add_argument("--date-col", default="date")
    p_test.add_argument("--y-col", default="y")
    p_test.add_argument("--x-col", default="x")
    p_test.add_argument("--method", choices=("tq", "hybrid"), default="hybrid")
    p_test.add_argument("--q", type=int, default=None, help="number of groups for --method tq")
    p_test.add_argument("--parity", choices=PARITIES, default=None,
                        help="differenced pairs for --intercept (default odd)")
    p_test.add_argument("--intercept", action="store_true",
                        help="use the intercept-robust differenced statistics")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--sided", choices=SIDES, default="two")
    p_test.add_argument("--out", default=None, help="directory for a CSV copy of the result")
    p_test.set_defaults(func=_cmd_test)

    p_table = sub.add_parser("table", help="run an experiment file")
    p_table.add_argument("--config", required=True,
                         help=f"config file path or bundled name {bundled_config_names()}")
    p_table.add_argument("--workers", type=int, default=1)
    p_table.add_argument("--out", required=True, help="output directory")
    p_table.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_table.set_defaults(func=_cmd_table)

    p_sim = sub.add_parser("simulate", help="dump one generated sample to CSV")
    p_sim.add_argument("--dgp", choices=("continuous", "discrete"), default="continuous")
    p_sim.add_argument("--vol", default="CNST")
    p_sim.add_argument("--kappa", type=float, default=0.0)
    p_sim.add_argument("--beta", type=float, default=0.0)
    p_sim.add_argument("--years", type=float, default=None, help="continuous design horizon (default 20)")
    p_sim.add_argument("--n-obs", type=int, default=None, help="discrete design sample size (default 240)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_d2 = sub.add_parser("d2", help="simulate the two-group limit-ratio density")
    p_d2.add_argument("--draws", type=int, default=100_000)
    p_d2.add_argument("--steps", type=int, default=1000)
    p_d2.add_argument("--threshold", type=float, default=None,
                      help=f"exceedance threshold (default {default_d2_threshold():.4f})")
    p_d2.add_argument("--seed", type=int, default=0)
    p_d2.add_argument("--out", default=None, help="directory for the histogram CSV")
    p_d2.set_defaults(func=_cmd_d2)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CauchyPredError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
