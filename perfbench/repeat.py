"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload checks --seeds 1-10 --seconds 30 \
        [--trace 0] [--out perfbench/baseline.json]

Per metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median. With
--out it merges the summary into that JSON file under the workload's name,
together with the machine and commit it was measured on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    values: dict[str, list[float]] = {}
    units, correct = {}, True
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        *notes, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}; "
              + "; ".join(notes), file=sys.stderr)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"{name:55s} median {med:12.6g} {units[name]:14s} spread {spread:.4f}")
    print(f"all runs correct: {correct}")

    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["environment"] = environment()
        key = args.workload + ("/trace" if args.trace == "1" else "")
        data.setdefault("workloads", {})[key] = {
            "seeds": seeds, "seconds": float(args.seconds), "trace": int(args.trace),
            "correct": correct, "metrics": summary,
        }
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
