"""Size of the sphereglue package, module by module.

    python3 bench/size.py [TREE]

TREE is a directory holding the `sphereglue` package (`src`, the default)
or a checkout whose `src/` holds it. One row per module, then the total:
the module's lines as `wc -l` counts them (newline characters) and its
logical lines, the NEWLINE tokens of `tokenize`, one per statement however
many physical lines it spans.
"""
from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sizes(path: Path) -> tuple[int, int]:
    """(wc -l, logical lines) of one Python file."""
    with path.open("rb") as fh:
        logical = sum(tok.type == tokenize.NEWLINE for tok in tokenize.tokenize(fh.readline))
    return path.read_bytes().count(b"\n"), logical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    package = Path(args.tree).resolve()
    if not (package / "sphereglue").is_dir():
        package = package / "src"
    rows = [(path.name, *sizes(path)) for path in sorted((package / "sphereglue").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'wc -l':>6} {'logical':>8}")
    for name, lines, logical in rows:
        print(f"{name:<16} {lines:>6} {logical:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
