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


def test_size_counts_lines_and_statements_per_module(tmp_path):
    """bench/size.py gives each module of a tree's sphereglue package its
    `wc -l` count and its logical lines (one per statement, however many
    lines it spans, comments and blank lines not counted), then the total."""
    package = tmp_path / "sphereglue"
    package.mkdir()
    (package / "a.py").write_text('"""Two-line\ndocstring."""\nx = (1,\n     2)\n\nif x:\n    y = 1  # comment\n')
    (package / "b.py").write_text("z = 3\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "size.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows == [["module", "wc", "-l", "logical"], ["a.py", "7", "4"], ["b.py", "1", "1"], ["total", "8", "5"]]
