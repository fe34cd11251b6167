"""sphereglue benchmark: runs one workload through the CLI entry point and
prints its metrics as the last line of standard output.

    python3 perfbench/run.py --workload cauchy-n2 --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics of untraced passes; with
--trace 1 it alternates untraced and traced passes and adds the layer
microbenchmarks, reporting the per-layer metrics. See perfbench/README.md.
"""
from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Tally, judge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 15

# Runs in a fresh interpreter: import the package and build the manifolds of
# the given config files the way the CLI does.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import argparse
from sphereglue import cli
for path in sys.argv[2:]:
    args = argparse.Namespace(config=path, seed=None, order=None, out=None)
    cli.make_manifold(cli.build_config(args))
print(time.perf_counter() - start)
"""


def write_configs(name: str, runs) -> list[str]:
    folder = WORK_DIR / name
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for run in runs:
        path = folder / f"{run.suite}-{run.label}.cfg"
        path.write_text(run.config_text(), encoding="utf-8")
        paths.append(str(path))
    return paths


def measure_setup(paths: list[str]) -> float:
    """Seconds a fresh interpreter takes to import the package and build the
    manifolds."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *paths],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, runs, paths, seed: int) -> tuple[float, list[str], Tally, list[str]]:
    """One pass over the workload's runs: wall time, report texts, tally, and
    outcomes the verdict table does not allow."""
    texts, tally, unexpected = [], Tally(), []
    start = perf_counter()
    for run, path in zip(runs, paths):
        argv = [run.suite, "--config", path, "--seed", str(seed if run.seed is None else run.seed)]
        buf, raised = io.StringIO(), None
        try:
            with contextlib.redirect_stdout(buf):
                cli.main(argv + list(run.extra))
        except Exception as exc:  # a suite that raises is a failed operation
            raised = f"{type(exc).__name__}: {exc}"
        texts.append(buf.getvalue() if raised is None else f"raised {raised}")
        run_tally, run_unexpected = judge(run, buf.getvalue(), raised)
        tally.add(run_tally)
        unexpected += run_unexpected
    return perf_counter() - start, texts, tally, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sphereglue" / "cli.py").is_file():
        print(f"perfbench: no sphereglue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sphereglue import cli

    runs = WORKLOADS[args.workload]
    paths = write_configs(args.workload, runs)
    total, unexpected, reference = Tally(), [], None

    def record(texts, tally, problems):
        nonlocal reference
        total.add(tally)
        unexpected.extend(problems)
        if reference is None:
            reference = texts
        elif texts != reference:
            unexpected.append("report text differs between passes")

    if args.trace:
        from micro import run as run_micro
        from tracer import Tracer

        plain, traced, tracer = [], [], Tracer()
        start = perf_counter()
        while not traced or perf_counter() - start < args.seconds:
            took, *outcome = run_pass(cli, runs, paths, args.seed)
            plain.append(took)
            record(*outcome)
            with tracer:
                took, *outcome = run_pass(cli, runs, paths, args.seed)
            traced.append(took)
            record(*outcome)
        metrics = tracer.layer_metrics(len(traced), sum(traced))
        metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
        micro_metrics, problems = run_micro(args.seed)
        metrics.update(micro_metrics)
        unexpected += problems
        print("untraced passes took " + ", ".join(f"{t:.3f}" for t in plain) + " s; traced "
              + ", ".join(f"{t:.3f}" for t in traced) + " s")
    else:
        # Set-up samples are spread over the run so that their median does not
        # hang on one phase of the host's load.
        passes, setup = [], []
        start = perf_counter()
        while not passes or perf_counter() - start < args.seconds:
            if perf_counter() - start >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(measure_setup(paths))
            took, *outcome = run_pass(cli, runs, paths, args.seed)
            passes.append(took)
            record(*outcome)
        while len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(paths))
        margin = total.margin_sum / total.margin_count if total.margin_count else 0.0
        metrics = {
            "pass_s": (statistics.median(passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "verified_share": (1.0 - (total.failed + total.defects) / total.attempted, "ratio"),
            "margin_digits": (margin, "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"pass_s: median of {len(passes)} passes; passes took "
              + ", ".join(f"{t:.3f}" for t in passes) + " s")
        print("set-up took " + ", ".join(f"{t:.3f}" for t in setup) + " s")

    for line in dict.fromkeys(unexpected):
        print(f"unexpected: {line}")
    print(f"operations: {total.attempted} attempted, {total.failed} failed, "
          f"{total.defects} showed a known defect")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
