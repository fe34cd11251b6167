"""Byte-for-byte report regression: each CLI run below must reproduce the
report stored in tests/golden/<name>.txt.

After an intended report change, regenerate the files with
    PYTHONPATH=src python tests/test_golden.py
which prints, per file, whether it changed and the old (-) and new (+) text
of every line that differs; say in the change log which reports moved and
why.
"""
import difflib
from pathlib import Path

import pytest

from sphereglue.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (subcommand, config values, extra flags)
CASES = {
    "algebra-n2": ("verify-algebra", {"n": 2}, ["--seed", "0"]),
    "algebra-n3": ("verify-algebra", {"n": 3}, ["--seed", "0"]),
    # a map of seed 1 has pseudo-determinant 0.9999999999999999, where the
    # weight scale abs(pd) ** 0.5 (libm pow) and np.sqrt differ in the last bit
    "algebra-n2-seed1": ("verify-algebra", {"n": 2}, ["--seed", "1"]),
    # seed 35 failed pullback-monogenicity-fd at n = 2 (2.35e-2) before the
    # finite-difference Dirac operator took its Richardson step
    "algebra-n2-seed35": ("verify-algebra", {"n": 2}, ["--seed", "35"]),
    "algebra-n3-seed35": ("verify-algebra", {"n": 3}, ["--seed", "35"]),
    "algebra-corrupt_vahlen": ("verify-algebra", {"n": 2, "corrupt_vahlen": 1}, ["--seed", "2"]),
    "kernel-two_spheres-n2": ("verify-kernel", {"kind": "two_spheres", "n": 2}, []),
    "kernel-two_spheres-n3": ("verify-kernel", {"kind": "two_spheres", "n": 3}, []),
    "kernel-plane_sphere-n2": ("verify-kernel", {"kind": "plane_sphere", "n": 2}, []),
    "kernel-plane_sphere-n3": ("verify-kernel", {"kind": "plane_sphere", "n": 3}, []),
    "cauchy-two_spheres": ("verify-cauchy", {"kind": "two_spheres"}, ["--order", "32"]),
    "cauchy-two_spheres-n3": ("verify-cauchy", {"kind": "two_spheres", "n": 3}, []),
    # the scaled chart and the order that perfbench's cauchy-n2 workload runs
    "cauchy-two_spheres-scale1": ("verify-cauchy", {"kind": "two_spheres", "scale1": 1.5}, ["--order", "128"]),
    "cauchy-plane_sphere": ("verify-cauchy", {"kind": "plane_sphere"}, ["--order", "32"]),
    "cauchy-plane_sphere-n3": ("verify-cauchy", {"kind": "plane_sphere", "n": 3}, []),
    "cauchy-break_weight": ("verify-cauchy", {"break_weight": 1}, ["--order", "32"]),
    "cauchy-break_normal": ("verify-cauchy", {"break_normal": 1}, ["--order", "32"]),
    "hardy": ("hardy", {}, ["--order", "64"]),
}


def run_case(name: str, workdir: Path) -> str:
    command, values, flags = CASES[name]
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    out = workdir / f"{name}.txt"
    main([command, "--config", str(cfg), *flags, "--out", str(out)])
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            path = GOLDEN / f"{case}.txt"
            old = path.read_text() if path.exists() else ""
            new = run_case(case, Path(tmp))
            path.write_text(new)
            print("changed" if new != old else "unchanged", case)
            diff = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
            for line in diff:
                if not line.startswith(("---", "+++", "@@")):
                    print("   ", line)
