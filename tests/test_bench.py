"""The A/B timing script bench/ab.py."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_runs_one_pass_of_a_tree_against_itself():
    """One alternating pass of each perfbench workload with src/ against
    itself: both trees report a median pass time, the ratio is printed, and
    the reports are identical."""
    for workload in ("hardy-n2", "cauchy-n2", "checks"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "ab.py"), "src", "src", "--workload", workload, "--passes", "1"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        assert done.returncode == 0, done.stderr
        medians = [float(m) for m in re.findall(r"median pass_s (\S+)", done.stdout)]
        assert len(medians) == 2 and all(m > 0.0 for m in medians), done.stdout
        assert re.search(rf"^workload {workload}: ", done.stdout, re.M), done.stdout
        assert re.search(r"^ratio B/A \d+\.\d{4}$", done.stdout, re.M), done.stdout
        assert done.stdout.rstrip().endswith("reports identical: True"), done.stdout
