"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload mc_continuous --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run.  The lines before it give the provenance, the
sha256 of each result file and any failed check.  Workloads, metrics and
the layer map are described in perfbench/README.md.

The workload runs in a child process (perfbench/workloads.py) that imports
cauchypred from ``src/`` of the current directory, with BLAS and OpenMP
pinned to one thread so that workers x threads <= nproc.  Set-up time is
the median over that process and extra processes that only set up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc_continuous", "mc_discrete", "d2", "cli_test")
# Set-up-only processes in addition to the workload process.
EXTRA_SETUPS = 2
# Everything must end well within the 180 s a run is allowed.
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run a workloads.py process; return the JSON object on its last stdout line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process timed out: {argv}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}: {argv}")
    return json.loads(lines[-1])


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cauchypred benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    deadline = time.monotonic() + BUDGET_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "cauchypred" / "__init__.py").is_file():
        print(f"error: {src / 'cauchypred'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out" / args.workload
    env = child_env(src)
    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--out", str(out_dir)]
    try:
        setups = []
        if not args.trace:
            for _ in range(EXTRA_SETUPS):
                setups.append(run_child([*child_argv, "--setup-only"], env, deadline)["setup_s"])
        result = run_child([*child_argv, "--trace", str(args.trace)], env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not Path(result["cauchypred_file"]).resolve().is_relative_to(src.resolve()):
        print(f"error: imported cauchypred from {result['cauchypred_file']}, not {src}",
              file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "commit": git_commit(root),
    }
    print("provenance " + json.dumps(provenance))
    for name, digest in sorted(result["digests"].items()):
        print(f"sha256 {digest}  {name}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"failed_frac {result['failed']}/{result['attempted']}")

    values = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        values["setup_s"] = statistics.median(setups)
        print(f"latency_tail_ms is p{result['latency_tail_pct']:.1f} of "
              f"{result['latency_samples']} samples; setup_s is the median of "
              + ", ".join(f"{x:.3f}" for x in setups))
    # BENCHMARK.json names every metric once, with its unit
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (out_dir / f"provenance_trace{args.trace}.json").write_text(
        json.dumps(provenance, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
