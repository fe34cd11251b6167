"""A/B timing of two sphereglue trees on one perfbench workload.

    python3 bench/ab.py TREE_A TREE_B --workload checks --passes 60

Each TREE is a directory holding the `sphereglue` package (such as `src`) or
a checkout whose `src/` holds it. Both trees are loaded in this one process,
each under a package name of its own, and driven through perfbench's
`run_pass`, `write_configs` and `WORKLOADS`, which are used as they are.
After one untimed pass of each tree, the timed passes alternate A B, B A, ...
so that drift of the host falls on both trees alike. The output gives each
tree's median pass_s, the ratio B/A, in how many pairs of passes B was
faster, the distance between the quartiles of A's passes, and whether every
report text of every pass is identical across the two trees.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

# perfbench's run sets a single-threaded BLAS before numpy is first imported
from run import run_pass, write_configs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_tree(tree: str, name: str):
    """The tree's sphereglue.cli, imported under the package name `name`."""
    src = Path(tree).resolve()
    if not (src / "sphereglue").is_dir():
        src = src / "src"
    spec = importlib.util.spec_from_file_location(
        name, src / "sphereglue" / "__init__.py", submodule_search_locations=[str(src / "sphereglue")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    clis = [load_tree(args.tree_a, "sphereglue_a"), load_tree(args.tree_b, "sphereglue_b")]
    runs = WORKLOADS[args.workload]
    paths = write_configs(args.workload, runs)
    times, texts = ([], []), []
    for i in range(args.passes + 1):
        for j in (0, 1) if i % 2 else (1, 0):
            took, pass_texts, _, _ = run_pass(clis[j], runs, paths, args.seed)
            texts.append(pass_texts)
            if i:  # the first pass of each tree is untimed
                times[j].append(took)
    med_a, med_b = (statistics.median(t) for t in times)
    print(f"workload {args.workload}: {args.passes} alternating passes per tree, seed {args.seed}")
    print(f"A {args.tree_a}: median pass_s {med_a:.6f}")
    print(f"B {args.tree_b}: median pass_s {med_b:.6f}")
    print(f"ratio B/A {med_b / med_a:.4f}")
    wins = sum(b < a for a, b in zip(*times))
    spread = statistics.quantiles(times[0])[2] - statistics.quantiles(times[0])[0] if args.passes > 1 else 0.0
    print(f"B faster in {wins} of {args.passes} pairs; A's interquartile range {spread:.6f} s")
    print(f"reports identical: {all(t == texts[0] for t in texts)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
